"""In-process layer timings: repeats and medians for the engine's hot layers.

    python tools/layer_times.py [--src DIR] [--json OUT]

Times the stabgames under DIR (default: this checkout's ``src``), so one
copy of the script compares two checkouts; the parity layers read the
game's input map from ``games.ParityGame.input_map`` and time
``scoring._reached_form``, and the cellulation layer reads its map from
``games.CellulationGame(coarse, p).input_map``, so DIR must have all three:
a tree where the games build their own input maps.
Every layer is called once untimed, then timed REPEATS (7) times with
``time.perf_counter`` after a ``gc.collect()``; the inputs are built once,
outside the timings.  Prints one line per layer, its median and its
repeats, in ms (MB for the peak RSS); ``--json`` also writes them to OUT.
Standard library only.

Layers:
  build.*            StabilizerGroup built from a code's generators: qubit
                     groups for tc2d L=32, tc3d-faces L=12 and xcube L=10,
                     the d=4 group for the 8x10 double semion
  expectation.*      one batch of expectation queries on the tc2d L=32
                     group (qubit path) and on the 8x10 double semion
                     (Weyl path): seeded products of two generators
                     (definite) and single-site operators (mostly zero)
  pauli.*, weyl.*    one batch of multiplies, and of commutation checks,
                     over seeded pairs of generators: Pauli for tc2d L=32,
                     Weyl for the 8x10 double semion
  fix_sector.*       the 8x10 double semion's two winding fixers
  parity.*           the reached set and its sign form, and the whole
                     outcome table (that form included), of game parity
                     --code tc2d --L 32 --P 12
  cellulation.*      the exact value of game cellulation --L 12 --blocks 2x2
                     over its 2^70 inputs: reached set, sign form and
                     exponential sum
  dense.*            the dense oracle at n=18: state_from_group on one
                     seeded random stabilizer state of the oracle benchmark
                     (perfbench.workloads), held in its support's
                     coordinates, and dense_expectation over its 25 queries
                     (group products and uniform random Paulis), counted
                     there
  scale.*            toric2d(128) in a child interpreter: its build time,
                     and its peak RSS from the child's rusage
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 7  # timed calls per layer; the toric2d(128) child runs REPEATS // 2 times
QUERIES = 256  # of each kind, per expectation batch
PAIRS = 4096  # per multiply or commutation batch
CHILD = (
    "import time; from stabgames.codes import toric2d; "
    "t = time.perf_counter(); toric2d(128); print(time.perf_counter() - t)"
)


def _timed(fn):
    """fn's wall times in ms over REPEATS calls, after one untimed call."""
    fn()
    out = []
    for _ in range(REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        fn()
        out.append((time.perf_counter() - t0) * 1e3)
    return out


def _group_build(code):
    from stabgames.tableau import StabilizerGroup

    gens, d, n = list(code.group.generators), code.d, code.n
    return lambda: StabilizerGroup(gens, d=d, n=n)


def _queries(code, mul, single, rng):
    gens = code.group.generators
    pairs = [mul(rng.choice(gens), rng.choice(gens)) for _ in range(QUERIES)]
    return pairs + [single(rng.randrange(code.n)) for _ in range(QUERIES)]


def _expectations(group, queries):
    return lambda: [group.expectation(q) for q in queries]


def _pairwise(fn, gens, rng):
    pairs = [(rng.choice(gens), rng.choice(gens)) for _ in range(PAIRS)]
    return lambda: [fn(p, q) for p, q in pairs]


def _oracle_state(n):
    """An oracle-benchmark stabilizer state on n qubits: its group, support
    seed and query operators, from the benchmark's own input generator."""
    from stabgames.pauli import PauliOperator
    from stabgames.tableau import StabilizerGroup
    from perfbench.workloads import random_qubit_state

    s = random_qubit_state(random.Random(30), n)
    group = StabilizerGroup([PauliOperator(n, *g) for g in s["gens"]], d=2, n=n)
    return group, [s["seed"]], [PauliOperator(n, *o) for o in s["ops"]]


def _tc2d_parity(code):
    from stabgames.games import ParityGame
    from stabgames.parity2d import tc2d_parity_ops

    ops = tc2d_parity_ops(code, 12)
    return (ops, ops.resource, *ParityGame(12).input_map())


def _tc2d_cellulation(code):
    from stabgames.cellulation import block_cellulation_ops
    from stabgames.games import CellulationGame

    strat = block_cellulation_ops(code, 2, 2)
    return (strat.ops, strat.ops.resource, *CellulationGame(strat.coarse, strat.p).input_map())


def _scale(src):
    """The child's toric2d(128) build times (ms) and peak RSS (MB)."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    build, rss = [], []
    for _ in range(REPEATS // 2):
        with subprocess.Popen([sys.executable, "-c", CHILD], env=env, stdout=subprocess.PIPE) as child:
            out = child.stdout.read()
            _, status, usage = os.wait4(child.pid, 0)  # the child's own rusage
            child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode:
            raise SystemExit(f"toric2d(128) child exited with {child.returncode}")
        build.append(float(out) * 1e3)
        rss.append(usage.ru_maxrss / 1024)  # KiB on Linux
    return build, rss


def layers(src):
    """{layer: (unit, values)}, one value per repeat."""
    from stabgames import codes, dense, scoring
    from stabgames.pauli import PauliOperator, commutes, multiply
    from stabgames.weyl import WeylOperator, commutation_phase, w_multiply

    out = {}
    tc = codes.toric2d(32)
    ds = codes.double_semion(8, 10)
    for name, code in (
        ("build.tc2d-L32", tc),
        ("build.tc3d-faces-L12", codes.toric3d_faces(12)),
        ("build.xcube-L10", codes.xcube(10)),
        ("build.ds-8x10", ds),
    ):
        out[name] = ("ms", _timed(_group_build(code)))
    rng = random.Random(29)
    qs = _queries(tc, multiply, lambda j: PauliOperator.single(tc.n, j, "X"), rng)
    out["expectation.qubit-tc2d-L32"] = ("ms", _timed(_expectations(tc.group, qs)))
    qs = _queries(ds, w_multiply, lambda j: WeylOperator.single(4, ds.n, j, 1, 0), rng)
    out["expectation.weyl-ds-8x10"] = ("ms", _timed(_expectations(ds.group, qs)))
    for name, fn, code in (
        ("pauli.multiply-tc2d-L32", multiply, tc),
        ("pauli.commutes-tc2d-L32", commutes, tc),
        ("weyl.w_multiply-ds-8x10", w_multiply, ds),
        ("weyl.commutation_phase-ds-8x10", commutation_phase, ds),
    ):
        out[name] = ("ms", _timed(_pairwise(fn, code.group.generators, rng)))
    fixers = codes.ds_winding_fixers(ds)
    out["fix_sector.ds-8x10"] = ("ms", _timed(lambda: ds.group.fix_sector(fixers)))
    args = _tc2d_parity(tc)
    for name, fn in (
        ("parity.reached-form-tc2d-L32-P12", scoring._reached_form),
        ("parity.outcome-table-tc2d-L32-P12", scoring._outcome_table),
    ):
        out[name] = ("ms", _timed(lambda: fn(*args)))
    args = _tc2d_cellulation(codes.toric2d(12))
    out["cellulation.value-tc2d-L12-2x2"] = ("ms", _timed(lambda: scoring._exact_value(*args)))
    group, seeds, ops = _oracle_state(18)
    out["dense.state-n18"] = ("ms", _timed(lambda: dense.state_from_group(group, seeds)))
    state = dense.state_from_group(group, seeds)
    out["dense.counts-n18"] = ("ms", _timed(lambda: [dense.dense_expectation(state, op) for op in ops]))
    build, rss = _scale(src)
    out["scale.toric2d-128-build"] = ("ms", build)
    out["scale.toric2d-128-peak-rss"] = ("MB", rss)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0], allow_abbrev=False)
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory that holds the stabgames package to time")
    ap.add_argument("--json", type=Path, help="also write {layer: {unit, median, repeats}} here")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    sys.path.append(str(ROOT))  # for perfbench.workloads, the oracle inputs' generator
    result = {}
    for name, (unit, values) in layers(src).items():
        med = statistics.median(values)
        result[name] = {"unit": unit, "median": round(med, 3), "repeats": [round(v, 3) for v in values]}
        print(f"{name:36s} {med:10.3f} {unit:2s}  " + " ".join(f"{v:.2f}" for v in values))
    if args.json:
        args.json.write_text(json.dumps({"src": str(src), "layers": result}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
