#!/usr/bin/env python3
"""Benchmark for hardball: one workload per process, untraced or traced.

    python3 bench/run.py --workload grand-r30 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --smoke

hardball is imported from the repository's src/ directory.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Untraced runs report the end-to-end
metrics, traced runs (--trace 1) the per-layer ones.  --smoke runs every
workload at reduced size, traced, with all checks.
See bench/README.md.
"""

import os

# One BLAS thread per process, set before numpy loads: cli-scan's two
# sweep workers then keep the busy threads at two.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("grand-r30", "petit-r15", "cli-scan")
SETUP_PROBES = 3
PROBE_INTERVAL_S = 0.25
# CPU time of one probe slice on the reference machine when it runs fast
PROBE_REF_S = 0.0015
sys.path.insert(0, str(ROOT / "src"))


def _probe_slice():
    """A fixed piece of pure-Python work; it uses no hardball code."""
    table, total = {}, 0
    for i in range(6000):
        table[i & 255] = i * 3
        total += table.get(i & 127, 0) + len(str(i & 1023))
    return total


def _slice_cpu_s():
    t0 = time.thread_time()
    _probe_slice()
    return time.thread_time() - t0


class SpeedProbe:
    """Measures how fast the machine runs while a round is timed.

    On a shared machine the same work can take from one to 1.9 times as
    long, in stretches of seconds to minutes.  A timer signal interrupts
    the main thread every PROBE_INTERVAL_S to time one fixed slice of
    work by its CPU time, so slices of a multi-threaded round do not
    count time spent waiting for other threads.  scale() turns a time
    measured meanwhile into seconds at reference speed.  The slices cost
    about 1% of the round and are part of the time measured.
    """

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def _tick(self, signum, frame):
        self.samples.append(_slice_cpu_s())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a round shorter than one interval
            self.samples.append(_slice_cpu_s())

    def scale(self, seconds):
        return seconds * PROBE_REF_S / statistics.fmean(self.samples)


def _workloads():
    """Import the workloads, and with them numpy and hardball."""
    import workloads

    return workloads


def setup_probe(name, seed):
    """Seconds to import hardball and build one round's inputs.

    Scaled to reference speed by probe slices just before and after; the
    stretch is too short for the timer.
    """
    before = [_slice_cpu_s() for _ in range(5)]
    t0 = time.perf_counter()
    _workloads().make(name, seed, OUT).setup()
    elapsed = time.perf_counter() - t0
    after = [_slice_cpu_s() for _ in range(5)]
    return elapsed * PROBE_REF_S / statistics.median(before + after)


def measure_setup(name, seed):
    """Median set-up time over fresh processes, so each pays the imports."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


class Rounds:
    """Timed rounds of one workload and the last round's inputs and outputs.

    raw holds the seconds each round took, times the same at reference
    speed.
    """

    def __init__(self):
        self.raw, self.times, self.errors = [], [], []
        self.attempted = self.failed = 0
        self.inputs = self.outputs = None


def run_rounds(wl, seconds, tracer=None, max_rounds=None):
    """Whole rounds while the next one is predicted to end within seconds."""
    rounds = Rounds()
    start = time.perf_counter()
    while True:
        inputs, outputs = wl.setup(), {}
        if tracer is not None:
            tracer.start_round()
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            for label, op in wl.operations(inputs, outputs):
                rounds.attempted += 1
                try:
                    if tracer is None:
                        op()
                    else:
                        tracer.run_span("bench.op", op)
                except Exception as exc:  # counted as a failed operation
                    rounds.failed += 1
                    rounds.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            rounds.raw.append(time.perf_counter() - t0)
        rounds.times.append(probe.scale(rounds.raw[-1]))
        rounds.inputs, rounds.outputs = inputs, outputs
        if max_rounds is not None and len(rounds.raw) >= max_rounds:
            break
        if time.perf_counter() - start + statistics.median(rounds.raw) > seconds:
            break
    return rounds


def check(wl, rounds, label):
    workloads = _workloads()
    report = workloads.checks.Report()
    wl.check(rounds.inputs, rounds.outputs, report)
    passed = sum(ok for _, ok, _ in report.results)
    print(f"{label}: rounds of {', '.join(f'{t:.3f}' for t in rounds.raw)} s measured, "
          f"{', '.join(f'{t:.3f}' for t in rounds.times)} s at reference speed, "
          f"{rounds.failed}/{rounds.attempted} operations failed, "
          f"{passed}/{len(report.results)} checks passed")
    for line in rounds.errors + report.failures():
        print(f"  FAILED {line}")
    return report


def untraced(name, seed, seconds):
    setup_s = measure_setup(name, seed)
    wl = _workloads().make(name, seed, OUT)
    rounds = run_rounds(wl, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = check(wl, rounds, name)
    metrics = {
        "wall_s": {"value": statistics.median(rounds.times), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    return report.ok, rounds.attempted, rounds.failed, metrics


def traced(name, seed, seconds, smoke=False):
    """One untraced round for the overhead, then traced rounds.

    The smoke run skips the untraced round and stops after one traced
    round, so it reports no overhead.
    """
    workloads = _workloads()
    import spans

    wl = workloads.make(name, seed, OUT, smoke=smoke)
    base = None if smoke else run_rounds(wl, 0.0, max_rounds=1)
    tracer = spans.Tracer()
    tracer.install()
    origin = time.perf_counter()
    try:
        rounds = run_rounds(wl, seconds - (base.times[0] if base else 0.0), tracer=tracer,
                            max_rounds=1 if smoke else None)
    finally:
        tracer.uninstall()
    report = check(wl, rounds, f"{name} traced")
    same, overhead = True, None
    if base is not None:
        same = wl.fingerprint(rounds.outputs) == wl.fingerprint(base.outputs)
        print(f"  traced results {'equal' if same else 'DIFFER FROM'} the untraced ones")
        overhead = 100.0 * (statistics.median(rounds.times) / base.times[0] - 1.0)
    metrics, absent = spans.layer_metrics(tracer, len(rounds.times), overhead)
    if absent:
        print(f"  absent (wrapped target missing): {', '.join(absent)}")
    tracer.write(OUT / f"spans-{name}.jsonl", origin)
    attempted = rounds.attempted + (base.attempted if base else 0)
    failed = rounds.failed + (base.failed if base else 0)
    return report.ok and same, attempted, failed, metrics, rounds.times


def smoke():
    """Every workload at reduced size, traced, with all checks."""
    t0 = time.perf_counter()
    all_ok = True
    for name in WORKLOAD_NAMES:
        ok, _, failed, metrics, times = traced(name, 0, 0.0, smoke=True)
        print(f"{name}: traced round {times[0]:.2f} s at reference speed, "
              f"{len(metrics)} layer metrics, "
              f"{'ok' if ok and failed == 0 else 'FAILED'}")
        all_ok &= ok and failed == 0
    print(f"smoke run {'passed' if all_ok else 'FAILED'} in {time.perf_counter() - t0:.1f} s")
    return 0 if all_ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0
    OUT.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.trace:
        ok, attempted, failed, metrics, _ = traced(args.workload, args.seed, args.seconds)
    else:
        ok, attempted, failed, metrics = untraced(args.workload, args.seed, args.seconds)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ImportError, RuntimeError, OSError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        sys.exit(2)
