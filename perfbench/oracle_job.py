"""Oracle job: tableau versus dense on generated inputs.

    python perfbench/oracle_job.py INPUT.json OUTPUT.json

For each qubit state in the input, build the StabilizerGroup, project a
dense state from it with ``state_from_group`` and evaluate every query
operator with both engines.  For each ququart sample, run the acceptance
criterion-10 rejection sampler over the given candidates first; draws whose
group does not fix a unique state are skipped, as in that test.

``state_from_group`` tries only the 64 lowest basis states by default and
raises when none of them overlaps the state, which happens for about one
random qubit state in thirty at these sizes.  So qubit states are projected
from the support seed the benchmark computed, and ququart draws try every
basis state in the default order.

The output records, per operator, the tableau kind, d, phase exponent and
the dense value; checking them is left to the benchmark.  A
``state_from_group`` failure is recorded as that entry's error.
"""

import json
import sys

from stabgames import dense, weyl
from stabgames.pauli import PauliOperator
from stabgames.tableau import StabilizerGroup
from stabgames.weyl import WeylOperator


def _compare(group, ops, seeds):
    state = dense.state_from_group(group, seeds)
    values = []
    for op in ops:
        e = group.expectation(op)
        v = dense.dense_expectation(state, op)
        values.append([e.kind, e.d, e.phase_exp, v.real, v.imag])
    return values


def _sample_ququart_group(n, candidates):
    gens = []
    for xs, zs in candidates:
        if len(gens) >= n:
            break
        cand = WeylOperator(4, n, tuple(xs), tuple(zs), 0)
        if cand.is_scalar():
            continue
        c = weyl.w_power(cand, 4).phase
        if c % 8 == 4:
            cand = cand.scale_w(1)
        elif c % 8:
            continue
        try:
            StabilizerGroup(gens + [cand])
        except ValueError:
            continue
        gens.append(cand)
    return StabilizerGroup(gens, d=4, n=n) if gens else None


def main(argv):
    src, dst = argv
    with open(src) as f:
        inputs = json.load(f)
    entries = []
    for i, s in enumerate(inputs["qubit_states"]):
        n = s["n"]
        group = StabilizerGroup([PauliOperator(n, *g) for g in s["gens"]], d=2, n=n)
        ops = [PauliOperator(n, *o) for o in s["ops"]]
        entry = {"part": "qubit", "index": i, "n": n, "error": None, "values": []}
        try:
            entry["values"] = _compare(group, ops, [s["seed"]])
        except ValueError as exc:
            entry["error"] = f"state_from_group: {exc}"
        entries.append(entry)
    for i, s in enumerate(inputs["ququart_samples"]):
        n = s["n"]
        group = _sample_ququart_group(n, s["candidates"])
        if group is None or group.ground_space_dim() != 1:
            continue
        ops = [WeylOperator(4, n, tuple(x), tuple(z), p) for x, z, p in s["ops"]]
        entry = {"part": "ququart", "index": i, "n": n, "error": None, "values": []}
        try:
            entry["values"] = _compare(group, ops, range(4**n))
        except ValueError as exc:
            entry["error"] = f"state_from_group: {exc}"
        entries.append(entry)
    with open(dst, "w") as f:
        json.dump({"entries": entries}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
