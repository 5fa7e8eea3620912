"""fanloops benchmark: four seeded workloads, end-to-end metrics, and a
traced run for per-layer metrics.

    python3 perfbench/run.py --workload check --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  One run is one workload in one process, closed loop, one
client: the next op starts when the previous one and its check are done.

--trace 0 (end to end): run whole rounds of the workload's fixed op list,
as many as fit in --seconds but at least three.  Every op's wall time is
scaled by a reference routine timed beside it (see reference.py), and each
op's latency is the median of its scaled times over the rounds;
ops_per_s, op_ms_p50 and op_ms_tail come from those medians.
setup_s is the median of up to five set-ups (imports, timed in a fresh
interpreter, then input generation, file writes and a warm-up op), each
scaled the same way, one before the first round and one after each of the
next rounds, so that they too are spread over the run.  --trace 1 (per
layer): run each of the workload's fixed number of rounds untraced and then
traced, then its closing ops traced, and report layer metrics from the
traced ops plus the difference in summed op latency.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Lines before it give the environment, the tail percentile,
op_fail_ratio and the unscaled wall-clock figures.  --corrupt runs the
negative control: each workload checks against a deliberately wrong
expected value, so failed must be above 0.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("check", "cover", "haar", "census")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="negative control: check against wrong expected values")
    return ap.parse_args(argv)


def tail_rank(n):
    """(percentile, 1-based rank) of the highest whole percentile of n
    values that has at least ten values beyond it."""
    pct = 100 * (n - 10) // n
    return pct, math.ceil(n * pct / 100)


def environment():
    import platform

    import numpy

    from fanloops import _kernels, lp

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "kernels": "numba" if _kernels.USE_NUMBA else "numpy",
        "lp_arithmetic": "gmpy2" if lp._HAS_GMPY2 else "Fraction",
        "unmeasured": [name for name, ran in
                       (("numba", _kernels.USE_NUMBA), ("gmpy2", lp._HAS_GMPY2))
                       if not ran],
    }


class Pass:
    """Op latencies and failures of one pass over whole rounds."""

    def __init__(self):
        self.rounds = []        # one list of scaled op latencies per round
        self.walls = []         # the same, unscaled
        self.closing = 0        # closing ops run
        self.failed = 0
        self.first_failure = None

    @property
    def attempted(self):
        return sum(map(len, self.rounds)) + self.closing

    def fail(self, why):
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = why

    def per_op(self, rounds=None):
        """Each op's median latency over the rounds."""
        return [statistics.median(times) for times in zip(*(rounds or self.rounds))]


def run_ops(ops, p, where, tracer=None):
    """Run and check each op; return the scaled and the wall latencies and
    record failures in Pass p, naming them by `where`."""
    clock = time.perf_counter
    latencies, refs, marks = [], [reference.sample()], []
    since_ref = 0.0
    for run, check in ops:
        if since_ref >= reference.REF_GAP_SECONDS:
            refs.append(reference.sample())
            since_ref = 0.0
        marks.append(len(refs) - 1)
        if tracer is not None:
            tracer.active = True
            span = tracer.open("op")
        t0 = clock()
        try:
            result, error = run(), None
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            result, error = None, exc
        latencies.append(clock() - t0)
        since_ref += latencies[-1]
        if tracer is not None:
            tracer.close(span)
            tracer.active = False
        if error is not None:
            p.fail(f"{type(error).__name__}: {error}")
            continue
        try:
            ok = check(result)
        except Exception as exc:  # noqa: BLE001 - a raising check fails its op
            p.fail(f"check raised {type(exc).__name__}: {exc}")
            continue
        if not ok:
            p.fail(f"wrong result in {where}, op {len(latencies)}")
    refs.append(reference.sample())
    scaled = [reference.scaled(wall, refs[m], refs[m + 1])
              for wall, m in zip(latencies, marks)]
    return scaled, latencies


def run_round(workload, p, tracer=None):
    """Run one round of the workload, adding to Pass p."""
    scaled, walls = run_ops(workload.round(), p, f"round {len(p.rounds)}", tracer)
    if p.rounds and len(scaled) != len(p.rounds[0]):
        p.fail(f"round {len(p.rounds)} ran {len(scaled)} ops, "
               f"round 0 ran {len(p.rounds[0])}")
    p.rounds.append(scaled)
    p.walls.append(walls)


def run_closing(workload, p, tracer=None):
    """Run the workload's closing ops once, adding to Pass p."""
    p.closing = len(run_ops(workload.closing_ops(), p, "closing ops", tracer)[0])


def timed_pass(workload, seconds, after_round):
    """Whole rounds, as many as end within `seconds` at the mean round time
    so far, but at least the workload's round floor; after_round() runs
    after each."""
    p = Pass()
    start = time.perf_counter()
    while True:
        run_round(workload, p)
        after_round()
        n = len(p.rounds)
        if n >= workload.min_rounds:
            elapsed = time.perf_counter() - start
            if elapsed * (n + 1) / n > seconds:
                return p


def traced_passes(workload, tracer, install):
    """The workload's trace rounds twice, untraced and traced, alternating
    round by round so both passes see the same machine conditions, then
    the closing ops, traced; the layer wrappers are in place only for the
    traced ops."""
    plain, traced = Pass(), Pass()
    for index in range(workload.trace_rounds):
        run_round(workload, plain)
        install(tracer)
        try:
            run_round(workload, traced, tracer)
            if index == workload.trace_rounds - 1:
                run_closing(workload, traced, tracer)
        finally:
            tracer.uninstall()
    return plain, traced


# The first reference sample in a fresh interpreter is slow (the
# interpreter has not yet specialised the routine's bytecode), so the probe
# uses the second.
IMPORT_PROBE = """\
import sys, time
sys.path[:0] = sys.argv[1:]
import reference
reference.sample()
before = reference.sample()
t0 = time.perf_counter()
import layers, tracing, workloads
wall = time.perf_counter() - t0
print(reference.scaled(wall, before, reference.sample()), wall)
"""


def import_seconds():
    """Scaled and wall time to import the program and the benchmark in a
    fresh interpreter, each timed and scaled in that interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC, HERE],
                          capture_output=True, text=True, check=True, timeout=120)
    scaled, wall = map(float, proc.stdout.split())
    return scaled, wall


class SetUp:
    """Set-ups of one workload, each in a fresh directory under workdir."""

    REPS = 5

    def __init__(self, cls, seed, workdir, corrupt):
        self.cls, self.seed, self.workdir, self.corrupt = cls, seed, workdir, corrupt
        self.samples = []       # scaled set-up times
        self.walls = []         # the same, unscaled

    def __call__(self):
        """One set-up: imports in a fresh interpreter, then inputs, files
        and a warm-up op here; records its scaled time and returns the
        workload."""
        imports_scaled, imports_wall = import_seconds()
        rep_dir = os.path.join(self.workdir, f"rep{len(self.samples)}")
        before = reference.sample()
        t0 = time.perf_counter()
        os.makedirs(rep_dir)
        workload = self.cls(self.seed, rep_dir, self.corrupt)
        workload.warm_up()
        wall = time.perf_counter() - t0
        self.walls.append(imports_wall + wall)
        self.samples.append(imports_scaled
                            + reference.scaled(wall, before, reference.sample()))
        return workload

    def again(self):
        """Another set-up, until there are REPS."""
        if len(self.samples) < self.REPS:
            self()


def run_one(args):
    sys.path.insert(0, SRC)
    import layers
    import tracing
    import workloads

    env = environment()
    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        set_up = SetUp(workloads.WORKLOADS[args.workload], args.seed, workdir, args.corrupt)
        workload = set_up()
        if args.trace:
            tracer = tracing.Tracer()
            plain, traced = traced_passes(workload, tracer, layers.install)
            overhead = sum(traced.per_op()) - sum(plain.per_op())
            passes = (plain, traced)
            metrics = layers.metrics(tracer, overhead)
        else:
            timed = timed_pass(workload, args.seconds, set_up.again)
            run_closing(workload, timed)
            passes = (timed,)
            metrics = end_to_end(timed, statistics.median(set_up.samples))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"rounds {len(passes[-1].rounds)} ops {attempted}")
    print(f"op_fail_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    for p in passes:
        if p.first_failure:
            print(f"first failure: {p.first_failure}", file=sys.stderr)
    if not args.trace:
        timed = passes[0]
        n = len(timed.rounds[0])
        pct, rank = tail_rank(n)
        print(f"op_ms_tail is p{pct} of {n} ops, each the median of "
              f"{len(timed.rounds)} rounds ({n - rank} beyond it)")
        walls = sorted(timed.per_op(timed.walls))
        print(f"wall clock, unscaled: ops_per_s {n / sum(walls):.6g} "
              f"op_ms_p50 {statistics.median(walls) * 1e3:.6g} "
              f"op_ms_tail {walls[rank - 1] * 1e3:.6g} "
              f"setup_s {statistics.median(set_up.walls):.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def end_to_end(timed, setup_s):
    per_op = timed.per_op()
    _, rank = tail_rank(len(per_op))
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_ms_p50": (statistics.median(per_op) * 1e3, "ms"),
        "op_ms_tail": (sorted(per_op)[rank - 1] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_all(args):
    """Each workload in its own process (peak RSS is per process)."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--corrupt"] if args.corrupt else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fanloops", "__init__.py")):
        print(f"perfbench: no fanloops package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
