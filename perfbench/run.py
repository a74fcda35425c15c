"""stabgames benchmark: whole CLI runs from cold start, checked exactly.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src``.  Each workload is a closed loop with one client: the next job
starts when the previous one has exited.  Every job is a fresh interpreter
(``python -m stabgames.cli ...``, or the benchmark's oracle job), so each
pays the cold start a CLI user pays and no cache carries over.

``--trace 0`` measures the end-to-end metrics: it times at least
MIN_JOBS jobs, and more while the next one is expected to end within
``--seconds``, with fresh imports of stabgames.cli spread between them.
Timings are reported in normalized seconds (see ``Calibration``): the run
and its children share one CPU, and every SLICE_S a child is stopped while
a calibration loop measures how fast that CPU is running just then.
``--trace 1`` runs one job three times, untraced, with spans and with
kernel call counts, then the kernel probes, and reports the per-layer
metrics.  The last line of output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from tracer import SpanTable, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload, check, make_job  # noqa: E402

MIN_JOBS = 3
SETUP_SAMPLES = 7
BUDGET_S = 150.0  # a run launches no job expected to end later than this
SLICE_S = 0.5  # a timed child is paused this often to run the calibration loop
CAL_ROUNDS = 400
CAL_REF_S = 0.01  # calibration time that defines one normalized second

END_TO_END_UNITS = {
    "job_norm_s_p50": "s",
    "job_cpu_norm_s_p50": "s",
    "jobs_per_norm_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
LAYER_UNITS = {
    "cli.self_s": "s",
    "complexes.build_s": "s",
    "codes.build_s": "s",
    "codes.build_self_s": "s",
    "codes.ds_string_calls": "count",
    "codes.ds_string_s": "s",
    "codes.exchange_statistics_s": "s",
    "tableau.build_s": "s",
    "tableau.build_calls": "count",
    "tableau.build_gens": "count",
    "tableau.build_rejects": "count",
    "tableau.fix_sector_s": "s",
    "tableau.fix_sector_calls": "count",
    "tableau.expectation_s": "s",
    "tableau.expectation_calls": "count",
    "tableau.expectation_us": "us",
    "pauli.ordered_product_s": "s",
    "pauli.ordered_product_calls": "count",
    "pauli.multiply_calls": "count",
    "pauli.multiply_ns": "ns",
    "weyl.w_multiply_calls": "count",
    "weyl.w_power_calls": "count",
    "weyl.commutation_phase_calls": "count",
    "weyl.w_multiply_us": "us",
    "weyl.commutation_phase_us": "us",
    "strategies.build_s": "s",
    "strategies.build_self_s": "s",
    "strategies.validate_s": "s",
    "games.eval_s": "s",
    "games.eval_self_s": "s",
    "games.classical_s": "s",
    "games.classical_classes_per_s": "1/s",
    "dense.state_from_group_s": "s",
    "dense.apply_operator_calls": "count",
    "dense.apply_operator_us": "us",
    "dense.bytes_computed": "bytes",
    "dense.expectation_s": "s",
    "trace.overhead_frac": "frac",
}


class Calibration:
    """A fixed pure-Python loop whose wall time tracks the machine's speed.

    On two shared cores the same job runs up to 1.5x slower for seconds to
    minutes at a time.  Scaling a stretch of running time by CAL_REF_S over
    the mean of this loop's time just before and just after it cancels most
    of that drift.  The loop does what the jobs mostly do, small-integer
    arithmetic over fresh 160-entry tuples; perfbench/NOTES.md says how it
    was chosen.
    """

    def __init__(self):
        self.readings: List[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        x, y = tuple(range(160)), tuple(range(3, 163))
        acc = 0
        for _ in range(CAL_ROUNDS):
            x = tuple((a + b) % 4 for a, b in zip(x, y))
            acc += sum(p * q for p, q in zip(x, y)) % 8
        self.readings.append(time.perf_counter() - t0)


@dataclass
class Outcome:
    """One finished child process."""

    wall_s: float  # running time; pauses for calibration are left out
    cpu_s: float
    rss_mb: float
    exit_code: int
    norm_s: float = 0.0  # wall_s in normalized seconds, when calibrated
    calib_s: float = 0.0  # wall seconds spent calibrating inside run_child
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


def _wait(pid: int, start: float, deadline: float, cal: Calibration = None):
    """Reap the child; return its status, rusage and running slices in seconds.

    With ``cal``, the child is stopped every SLICE_S while the calibration
    loop runs on the CPU it shares with the parent.  The child is only
    signalled before it is reaped, so its pid cannot have been reused.
    """
    fd = os.pidfd_open(pid)
    try:
        slices = []
        mark = start
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                os.kill(pid, signal.SIGKILL)
                break
            period = min(left, SLICE_S) if cal is not None else left
            if select.select([fd], [], [], period)[0]:
                break
            if cal is None:
                continue
            ran = time.perf_counter() - mark
            os.kill(pid, signal.SIGSTOP)
            _, status, usage = os.wait4(pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):  # exited before the stop arrived
                slices.append(time.perf_counter() - mark)
                return status, usage, slices
            slices.append(ran)
            cal.sample()
            os.kill(pid, signal.SIGCONT)
            mark = time.perf_counter()
        _, status, usage = os.wait4(pid, 0)
        slices.append(time.perf_counter() - mark)
        return status, usage, slices
    finally:
        os.close(fd)


def run_child(argv: List[str], log: Path, timeout: float, cal: Calibration = None) -> Outcome:
    """Run ``python argv`` to completion; time it and read its rusage.

    With ``cal``, whose last reading was taken just before, the running
    time is also normalized slice by slice: each slice between the readings
    on either side of it, the last closed by a reading after exit.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    first = len(cal.readings) - 1 if cal else 0
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT)
        try:
            status, usage, slices = _wait(proc.pid, t0, t0 + timeout, cal)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    outcome = Outcome(sum(slices), usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                      proc.returncode)
    if cal is not None:
        cal.sample()
        outcome.calib_s = time.perf_counter() - t0 - outcome.wall_s
        r = cal.readings[first:]
        outcome.norm_s = sum(2 * CAL_REF_S * t / (a + b) for t, a, b in zip(slices, r, r[1:]))
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-1:] or [""]
        outcome.problems.append(f"exit code {proc.returncode}: {tail[0]}")
    return outcome


def run_job(w: Workload, argv: List[str], result: Path, log: Path, timeout: float,
            cal: Calibration = None) -> Outcome:
    outcome = run_child(argv, log, timeout, cal)
    if outcome.exit_code == 0:
        outcome.problems += check(w, result)
    return outcome


IMPORT_ARGV = ["-c", "import stabgames.cli"]


def check_import(rundir: Path) -> None:
    """Import stabgames.cli once: fails early and fills the bytecode cache."""
    o = run_child(IMPORT_ARGV, rundir / "setup.log", 60)
    if o.exit_code != 0:
        raise RuntimeError(f"cannot import stabgames.cli from {SRC}: {o.problems}")


@dataclass
class Report:
    """What one run prints: its result line, plus notes and failures for people."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    units: Dict[str, str]
    failures: List[str]
    notes: List[str]

    def result(self) -> dict:
        return {
            "correct": self.failed == 0 and not self.failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": self.units[k]} for k, v in self.metrics.items()},
        }


def run_timed(w: Workload, seed: int, seconds: float, rundir: Path) -> Report:
    check_import(rundir)
    cal = Calibration()
    cal.sample()
    setup: List[float] = []  # normalized seconds per import
    jobs: List[tuple] = []  # (outcome, normalized loop seconds)
    failures, misses = [], 0
    busy = 0.0  # wall seconds spent preparing, running and checking jobs
    start = time.perf_counter()
    while True:
        # Setup samples are spread over the run so that they see the same
        # machine as the jobs.
        if len(setup) * seconds / SETUP_SAMPLES <= busy:
            setup.append(run_child(IMPORT_ARGV, rundir / "setup.log", 60, cal).norm_s)
        t0 = time.perf_counter()
        i = len(jobs)
        jobdir = rundir / f"job{i}"
        job = make_job(w, seed, i, jobdir)
        misses += job.default_seed_misses
        timeout = max(10.0, BUDGET_S - (t0 - start))
        o = run_job(w, job.argv, job.result, jobdir / "log.txt", timeout, cal)
        if o.ok:
            shutil.rmtree(jobdir)
        else:
            failures.extend(f"job {i}: {p}" for p in o.problems)
        dt = time.perf_counter() - t0 - o.calib_s
        busy += dt
        jobs.append((o, dt * o.norm_s / o.wall_s))
        typical = statistics.median(j[0].wall_s for j in jobs)
        if len(jobs) >= MIN_JOBS and busy + typical > seconds:
            break
        if time.perf_counter() - start + typical > BUDGET_S:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(run_child(IMPORT_ARGV, rundir / "setup.log", 60, cal).norm_s)
    outcomes = [o for o, _ in jobs]
    failed = sum(not o.ok for o in outcomes)
    metrics = {
        "job_norm_s_p50": statistics.median(o.norm_s for o in outcomes),
        "job_cpu_norm_s_p50": statistics.median(o.cpu_s * o.norm_s / o.wall_s for o in outcomes),
        "jobs_per_norm_s": len(jobs) / sum(n for _, n in jobs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(o.rss_mb for o in outcomes),
        "ok_frac": (len(outcomes) - failed) / len(outcomes),
    }
    notes = [
        f"jobs timed: {len(jobs)}, fail_frac: {failed / len(jobs):.4f}",
        f"unscaled: job_s_p50 {statistics.median(o.wall_s for o in outcomes):.4f} s, "
        f"job_cpu_s_p50 {statistics.median(o.cpu_s for o in outcomes):.4f} s, "
        f"jobs_per_s {len(jobs) / busy:.4f} 1/s",
    ]
    if w.cli is None:
        notes.append(f"qubit states whose support misses the 64 default seeds of "
                     f"state_from_group (projected from the computed seed): {misses}")
    return Report(len(outcomes), failed, metrics, END_TO_END_UNITS, failures, notes)


def trace_passes(w: Workload, seed: int, rundir: Path):
    """Run job 0 untraced, with spans and with kernel counts.

    Returns the three outcomes by pass name, the spans and the counts
    (both None when a pass failed).
    """
    job = make_job(w, seed, 0, rundir / "job0")
    passes = {}
    cal = Calibration()  # sampled around each pass only: pauses would land in spans
    cal.sample()
    for mode in ("plain", "spans", "counts"):
        data = rundir / f"{mode}.json"
        argv = job.argv if mode == "plain" else [
            str(HERE / "tracer.py"), mode, str(data), "0", "--", *job.argv]
        o = run_job(w, argv, job.result, rundir / f"{mode}.log", BUDGET_S)
        cal.sample()
        o.norm_s = o.wall_s * 2 * CAL_REF_S / (cal.readings[-2] + cal.readings[-1])
        passes[mode] = o
    if not all(o.ok for o in passes.values()):
        return passes, None, None
    spans = json.loads((rundir / "spans.json").read_text())["spans"]
    (rundir / "spans.json").unlink()
    counts = json.loads((rundir / "counts.json").read_text())["counts"]
    return passes, spans, counts


def run_traced(w: Workload, seed: int, rundir: Path) -> Report:
    passes, spans, counts = trace_passes(w, seed, rundir)
    probe = run_child([str(HERE / "probes.py"), str(rundir / "probes.json"), str(seed)],
                      rundir / "probes.log", BUDGET_S)
    failures = [f"{mode} job: {p}" for mode, o in passes.items() for p in o.problems]
    failures += [f"probes: {p}" for p in probe.problems]
    if failures:
        return Report(3, sum(not o.ok for o in passes.values()), {}, LAYER_UNITS, failures, [])
    metrics = layer_metrics(spans, counts)
    metrics.update(json.loads((rundir / "probes.json").read_text()))
    metrics["trace.overhead_frac"] = passes["spans"].norm_s / passes["plain"].norm_s - 1
    metrics = {k: metrics[k] for k in LAYER_UNITS}
    origin = spans[0][1]
    trace = {
        "workload": w.name,
        "seed": seed,
        "span_fields": ["name", "start_s", "end_s", "parent", "job"],
        "spans": [[s[0], s[1] - origin, s[2] - origin, s[3], s[4]] for s in spans],
        "counts": counts,
        "metrics": metrics,
    }
    (rundir / "trace.json").write_text(json.dumps(trace))
    layer_self = SpanTable(spans).layer_self()
    total = sum(layer_self.values())
    notes = [f"self time {layer:<11} {t:9.4f} s  {t / total:6.1%}"
             for layer, t in sorted(layer_self.items(), key=lambda kv: -kv[1])]
    notes.append("job normalized s: " + ", ".join(f"{m} {o.norm_s:.3f}" for m, o in passes.items()))
    notes.append(f"spans: {len(spans)}, trace written to {rundir / 'trace.json'}")
    return Report(3, 0, metrics, LAYER_UNITS, [], notes)


def print_report(name: str, report: Report) -> None:
    print(f"== {name}")
    for k, v in report.metrics.items():
        print(f"  {k:<32} {v:>16.6g} {report.units[k]}")
    for line in report.notes:
        print(f"  {line}")
    for line in report.failures:
        print(f"  FAILED {line}")
    print(json.dumps(report.result()), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "stabgames" / "__init__.py").is_file():
        print(f"error: no stabgames sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # Jobs and calibration share one CPU, so the calibration sees the
    # job's core; children inherit the affinity.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        rundir = WORK / f"{name}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(rundir, ignore_errors=True)
        rundir.mkdir(parents=True)
        w = WORKLOADS[name]
        if args.trace:
            report = run_traced(w, args.seed, rundir)
        else:
            report = run_timed(w, args.seed, args.seconds, rundir)
        print_report(name, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
