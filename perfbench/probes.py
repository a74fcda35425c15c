"""Kernel probes: time Pauli and Weyl arithmetic on the workloads' own operators.

    python perfbench/probes.py OUT.json SEED

Pairs come from the tc2d L=32 generators (n=2048 qubits) and the
double-semion 8x10 generators (n=160 ququarts), chosen by SEED.  Each
figure is the median over repeats of the mean time per call.
"""

import json
import random
import statistics
import sys
import time

from stabgames.codes import double_semion, toric2d
from stabgames.pauli import multiply
from stabgames.weyl import commutation_phase, w_multiply

PAIRS = 256
REPEATS = 7
MIN_SECONDS = 0.05


def per_call(fn, pairs):
    """Median over REPEATS of the mean seconds per call of fn over pairs."""
    rounds = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(rounds):
            for p, q in pairs:
                fn(p, q)
        if time.perf_counter() - t0 >= MIN_SECONDS:
            break
        rounds *= 2
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(rounds):
            for p, q in pairs:
                fn(p, q)
        samples.append((time.perf_counter() - t0) / (rounds * len(pairs)))
    return statistics.median(samples)


def main(argv):
    out, seed = argv[0], int(argv[1])
    rng = random.Random(seed)
    tc = toric2d(32).group.generators
    ds = double_semion(8, 10).group.generators
    tc_pairs = [(rng.choice(tc), rng.choice(tc)) for _ in range(PAIRS)]
    ds_pairs = [(rng.choice(ds), rng.choice(ds)) for _ in range(PAIRS)]
    metrics = {
        "pauli.multiply_ns": per_call(multiply, tc_pairs) * 1e9,
        "weyl.w_multiply_us": per_call(w_multiply, ds_pairs) * 1e6,
        "weyl.commutation_phase_us": per_call(commutation_phase, ds_pairs) * 1e6,
    }
    with open(out, "w") as f:
        json.dump(metrics, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
