"""Workloads of the stabgames benchmark: job command lines, generated oracle
inputs and the exact-result check of every job.

A job is one fresh interpreter: ``python -m stabgames.cli ...`` for the CLI
workloads, ``python perfbench/oracle_job.py IN OUT`` for ``oracle``.  Jobs
are made from (workload seed, job index), so a seed fixes every input.
"""

from __future__ import annotations

import cmath
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

HERE = Path(__file__).resolve().parent

# Exchange phases of s, sbar and ssbar on the double-semion code.
DS_EXCHANGE = {"s": 1j, "sbar": -1j, "ssbar": 1 + 0j}
EXCHANGE_TOL = 1e-12
ORACLE_TOL = 1e-10
ORACLE_OPS = 25


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``cli`` holds the stabgames.cli arguments of every job; when it is None
    the job is the benchmark's own tableau-versus-dense oracle job over
    qubit states on ``qubits`` and criterion-10 ququart samples on
    ``ququarts``.  ``expect`` is the exact fraction the CLI record reports.
    """

    name: str
    cli: Optional[Tuple[str, ...]] = None
    expect: str = ""
    qubits: Tuple[int, ...] = ()
    ququarts: Tuple[int, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ds-magic-square", ("game", "magic-square", "--Lx", "8", "--Ly", "10"), "1/1"),
        Workload("tc2d-parity", ("game", "parity", "--code", "tc2d", "--L", "32", "--P", "12"), "1/1"),
        Workload("classical-optimum", ("game", "parity", "--classical", "--P", "12"), "33/64"),
        Workload("oracle", qubits=(14, 15, 16, 17, 18), ququarts=(1, 2, 3, 4, 5, 6)),
    )
}


@dataclass(frozen=True)
class Job:
    """A prepared job: interpreter arguments and where its result lands.

    ``default_seed_misses`` counts the job's qubit states that
    ``state_from_group`` with its default seeds could not project.
    """

    argv: List[str]
    result: Path
    default_seed_misses: int = 0


def make_job(w: Workload, seed: int, index: int, jobdir: Path) -> Job:
    """Write the job's inputs into ``jobdir`` and return its command line."""
    jobdir.mkdir(parents=True, exist_ok=True)
    if w.cli is not None:
        argv = ["-m", "stabgames.cli", *w.cli, "--seed", str(seed), "--workers", "1",
                "--outdir", str(jobdir), "--tag", "job"]
        return Job(argv, jobdir / "job.json")
    rng = random.Random(f"{seed}/{index}")
    inputs = {
        "qubit_states": [random_qubit_state(rng, n) for n in w.qubits],
        "ququart_samples": [ququart_sample(rng, n) for n in w.ququarts],
    }
    src = jobdir / "input.json"
    src.write_text(json.dumps(inputs))
    out = jobdir / "output.json"
    misses = sum(s["seed"] >= 64 for s in inputs["qubit_states"])
    return Job([str(HERE / "oracle_job.py"), str(src), str(out)], out, misses)


# -- oracle inputs ---------------------------------------------------------------


def random_qubit_state(rng: random.Random, n: int) -> dict:
    """A random n-qubit stabilizer state and 25 operators to query on it.

    The Z-basis group is conjugated by n*n random H, S and CNOT gates acting
    on the generators' x/z bits; each generator then gets a random
    Hermitian sign.  Gates preserve commutation and independence, so any
    signs give a unique state.  Operators alternate between a product of a
    random generator subset with a random i-power (definite on the state)
    and a uniform random Pauli (mostly zero).  No state is rejected.
    """
    xs = [0] * n
    zs = [1 << j for j in range(n)]
    for _ in range(n * n):
        gate = rng.randrange(3)
        a = rng.randrange(n)
        if gate == 0:  # H: swap x_a and z_a
            bit = 1 << a
            for k in range(n):
                if bool(xs[k] & bit) != bool(zs[k] & bit):
                    xs[k] ^= bit
                    zs[k] ^= bit
        elif gate == 1:  # S: z_a ^= x_a
            for k in range(n):
                zs[k] ^= xs[k] & (1 << a)
        else:  # CNOT a -> b: x_b ^= x_a, z_a ^= z_b
            b = (a + 1 + rng.randrange(n - 1)) % n
            for k in range(n):
                if (xs[k] >> a) & 1:
                    xs[k] ^= 1 << b
                if (zs[k] >> b) & 1:
                    zs[k] ^= 1 << a
    gens = [[x, z, (bin(x & z).count("1") + 2 * rng.randrange(2)) % 4] for x, z in zip(xs, zs)]
    ops = []
    for i in range(ORACLE_OPS):
        if i % 2 == 0:
            x = z = 0
            for gx, gz, _ in gens:
                if rng.randrange(2):
                    x ^= gx
                    z ^= gz
            ops.append([x, z, rng.randrange(4)])
        else:
            ops.append([rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4)])
    return {"n": n, "gens": gens, "ops": ops, "seed": support_seed(n, gens)}


def support_seed(n: int, gens: List[List[int]]) -> int:
    """Lowest basis-state index with nonzero overlap on the state of ``gens``.

    Amplitude index bit n-1-j is site j, as in stabgames.dense.  A basis
    state is in the support iff every Z-type group element i^ph Z^c has
    eigenvalue +1 on it, i.e. parity(c . b) = ph / 2.
    """
    xrows: List[List[int]] = []  # group elements with distinct lowest x bit
    constraints = []
    for x, z, ph in gens:
        for rx, rz, rph in xrows:
            if x & rx & -rx:
                x, z, ph = x ^ rx, z ^ rz, (ph + rph + 2 * bin(z & rx).count("1")) % 4
        if x:
            xrows.append([x, z, ph])
        else:
            c = int(format(z, f"0{n}b")[::-1], 2)  # reversed: site j -> index bit n-1-j
            constraints.append([c, ph // 2])
    pivots: List[List[int]] = []
    for c, t in constraints:
        for pc, pt in pivots:
            if c & pc & -pc:
                c, t = c ^ pc, t ^ pt
        if c:
            for row in pivots:
                if row[0] & c & -c:
                    row[0] ^= c
                    row[1] ^= t
            pivots.append([c, t])
        elif t:
            raise ValueError("generators fix no state")
    # With each pivot at its row's lowest bit, free bits 0 give the minimum.
    return sum(pc & -pc for pc, pt in pivots if pt)


def ququart_sample(rng: random.Random, n: int) -> dict:
    """Inputs of one criterion-10 ququart draw: the 30n candidate generators
    its rejection sampler may try, and 25 query operators."""
    def exps():
        return [rng.randrange(4) for _ in range(n)]

    cands = [[exps(), exps()] for _ in range(30 * n)]
    ops = [[exps(), exps(), 2 * rng.randrange(4)] for _ in range(ORACLE_OPS)]
    return {"n": n, "candidates": cands, "ops": ops}


# -- exact-result checks ---------------------------------------------------------


def check(w: Workload, result: Path) -> List[str]:
    """Problems with a finished job's result; empty means exact and correct."""
    try:
        record = json.loads(result.read_text())
    except (OSError, ValueError) as exc:
        return [f"no readable result: {exc}"]
    try:
        return _check_oracle(w, record) if w.cli is None else _check_cli(w, record)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed result: {exc!r}"]


def _check_cli(w: Workload, record: dict) -> List[str]:
    problems = []
    key = "p_cl" if "p_cl" in record else "p_q"
    got = record.get(key, {}).get("fraction")
    if got != w.expect:
        problems.append(f"{key} = {got}, expected {w.expect}")
    if "rows_ok" in record:
        if len(record["rows_ok"]) != 3 or not all(record["rows_ok"]):
            problems.append(f"rows_ok = {record['rows_ok']}")
        if len(record["cols_ok"]) != 3 or not all(record["cols_ok"]):
            problems.append(f"cols_ok = {record['cols_ok']}")
        cells = record["cells"]
        if len(cells) != 9 or any(k != "definite" for k in cells.values()):
            problems.append(f"cells = {cells}")
        if record["problems"]:
            problems.append(f"problems = {record['problems']}")
        for anyon, want in DS_EXCHANGE.items():
            got_x = complex(record["exchange"][anyon])
            if abs(got_x - want) > EXCHANGE_TOL:
                problems.append(f"exchange {anyon} = {got_x}, expected {want}")
    return problems


def _check_oracle(w: Workload, record: dict) -> List[str]:
    problems = []
    states = sum(entry["part"] == "qubit" for entry in record["entries"])
    if states != len(w.qubits):
        problems.append(f"{states} qubit states checked, expected {len(w.qubits)}")
    for entry in record["entries"]:
        where = f"{entry['part']} #{entry['index']} (n={entry['n']})"
        if entry["error"]:
            problems.append(f"{where}: {entry['error']}")
            continue
        for k, (kind, d, phase_exp, re, im) in enumerate(entry["values"]):
            dense = complex(re, im)
            tab = cmath.exp(1j * cmath.pi * phase_exp / d) if kind == "definite" else 0j
            if (kind == "definite") != (abs(dense) > 0.5):
                problems.append(f"{where} op {k}: tableau {kind}, dense {dense:.3g}")
            elif abs(dense - tab) > ORACLE_TOL:
                problems.append(f"{where} op {k}: |dense - tableau| = {abs(dense - tab):.3g}")
    return problems
