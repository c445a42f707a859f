"""Benchmark of the deltoids library and CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):
  small-sweep   library, warm caches: every route on n = 2..12 instances
  large-cyclic  library: polynomial routes on a Z997/Z4001 ladder up to n = 1100
  cli-cold      one `python -m deltoids` child per op, all nine subcommands

One client runs ops in a closed loop: the next op starts when the previous
one returns.  The timed phase runs whole passes over the workload's op list
and ends at the pass boundary nearest to --seconds (at least one pass).
Every op is checked outside the timed region.  With --trace 0 the last
stdout line carries the end-to-end metrics; with --trace 1 each op runs
untraced and traced, in alternating order, and the last line carries the
per-layer metrics.  The library is imported from src/ of this checkout only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import Recorder, layer_metric_units, layer_metrics
from speed import MIN_SAMPLES, Speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
SETUP_PROBES = 6  # extra set-ups in fresh processes; setup_s is the median of 1 + these
SAFETY = 4  # no op starts after SAFETY * --seconds of timed ops, so a run stays bounded

WORKLOADS = ("small-sweep", "large-cyclic", "cli-cold")
E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Workload:
    """The pieces of one workload, behind one interface for the runner."""

    def __init__(self, name: str, seed: int, tiny: bool, workdir: Path):
        self.name = name
        if name == "cli-cold":
            clicold = importlib.import_module("clicold")
            self.state = clicold.setup(seed, tiny, workdir)
            self.items = self.state.ops
            self.op = lambda rec, op: clicold.run_op(rec, self.state, op)
            self.after = lambda rec, op, out: clicold.after_op(rec, self.state, op, out)
            self.failure = lambda op, out: clicold.failure(self.state, op, out)
            self.check = lambda op, out: clicold.check(self.state, op, out)
            self.label = lambda op: op.label
            self.digest_part = lambda out: {"code": out["code"], "stdout": out["stdout"]}
            return
        library = importlib.import_module("library")
        if name == "small-sweep":
            self.items = library.setup_small(seed, tiny)
            self.op, self.check = library.small_op, library.check_small
            self.failure = lambda item, out: None
        else:
            self.items = library.setup_large(seed, tiny)
            self.op, self.check = library.large_op, library.check_large
            self.failure = library.failure_large
        self.after = lambda rec, item, out: out
        self.label = lambda item: item[0]
        self.digest_part = lambda out: out
        self.library = library

    def warm(self, rec) -> None:
        """Warm-up a library user pays once per process."""
        if self.name == "small-sweep":
            self.library.warm_small(rec, self.items)


def set_up(args, workdir: Path, rec) -> tuple[Workload, float, float]:
    """Import deltoids, generate the seeded inputs and warm up; timed."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import deltoids

    if Path(deltoids.__file__).resolve().parent != (SRC / "deltoids").resolve():
        raise SystemExit(f"deltoids imported from {deltoids.__file__}, not from {SRC}")
    workload = Workload(args.workload, args.seed, args.tiny, workdir)
    workload.warm(rec)
    return workload, start, time.perf_counter()


def stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def digest(record) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """The closed loop over whole passes, with checks outside the timing."""

    def __init__(self, workload: Workload, rec, seconds: float, speed):
        self.w = workload
        self.rec = rec
        self.seconds = seconds
        self.speed = speed
        self.durations: list[float] = []  # untraced op wall times
        self.scaled: list[float] = []  # the same, at the reference host speed
        self.spans: list[tuple[float, float]] = []
        self.traced_durations: list[float] = []
        self.failed: list[tuple[str, str]] = []  # ops that gave no answer
        self.wrong: list[tuple[str, list[str]]] = []  # ops whose answer is wrong
        self.attempted = 0
        self.first_pass: list[str] = []
        self.passes = 0
        self.depth = None

    def run_once(self, rec, op_id, item):
        """One op: ((start, end), digest, failure or None, wrong answers)."""
        rec.begin_op(op_id)
        if self.depth is None:
            self.depth = stack_depth() + 2  # + op function + Recorder.call
        start = time.perf_counter()
        try:
            out = self.w.op(rec, item)
        except Exception as exc:  # counted as a failed op, never retried
            end = time.perf_counter()
            rec.end_op(start, end)
            failure = f"{type(exc).__name__}: {exc}"
            return (start, end), digest(failure), failure, []
        end = time.perf_counter()
        rec.end_op(start, end)
        out = self.w.after(rec, item, out)
        failure = self.w.failure(item, out)
        wrong = [] if failure else self.w.check(item, out)
        return (start, end), digest(self.w.digest_part(out)), failure, wrong

    def run_pair(self, op_id, item):
        """Untraced and traced runs of one op, alternating which goes first."""
        untraced = Recorder(traced=False)
        order = (False, True) if op_id % 2 == 0 else (True, False)
        results = {}
        for traced in order:
            results[traced] = self.run_once(self.rec if traced else untraced, op_id, item)
        span, dig, failure, wrong = results[False]
        (t_start, t_end), t_dig, t_failure, t_wrong = results[True]
        self.traced_durations.append(t_end - t_start)
        wrong = wrong + t_wrong
        if (failure is None) != (t_failure is None) or dig != t_dig:
            wrong.append("traced and untraced runs differ")
        return span, dig, failure, wrong

    def run(self, traced: bool) -> None:
        self.speed.sample(MIN_SAMPLES)
        self._passes(traced)
        self.speed.sample(MIN_SAMPLES)
        self.scaled = [(end - start) * self.speed.factor(start, end)
                       for start, end in self.spans]

    def _passes(self, traced: bool) -> None:
        items = self.w.items
        timed = 0.0
        op_id = 0
        while True:
            for index, item in enumerate(items):
                if timed > SAFETY * self.seconds:
                    return
                if traced:
                    span, dig, failure, wrong = self.run_pair(op_id, item)
                    timed += self.traced_durations[-1]
                else:
                    span, dig, failure, wrong = self.run_once(self.rec, op_id, item)
                    self.speed.keep_up(span[1] - span[0])
                wall = span[1] - span[0]
                timed += wall
                self.durations.append(wall)
                self.spans.append(span)
                self.attempted += 1
                if self.passes == 0:
                    self.first_pass.append(dig)
                elif dig != self.first_pass[index]:
                    wrong = wrong + ["output differs from the first pass"]
                if wrong:
                    self.wrong.append((self.w.label(item), wrong))
                elif failure:
                    self.failed.append((self.w.label(item), failure))
                op_id += 1
            self.passes += 1
            if timed + timed / self.passes / 2 >= self.seconds:
                return


def item_medians(durations: list[float], per_pass: int) -> list[float]:
    """The median time of each op in the list, over the passes run."""
    return [statistics.median(durations[i::per_pass])
            for i in range(min(per_pass, len(durations)))]


def timing_metrics(durations: list[float]) -> dict[str, float]:
    p90 = durations[0] if len(durations) < 2 else statistics.quantiles(durations, n=10)[8]
    return {
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_ms": statistics.median(durations) * 1000,
        "op_p90_ms": p90 * 1000,
    }


def probe_setups(args) -> list[dict]:
    """Set-up times of SETUP_PROBES fresh processes, one at a time."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times


def context(args, runner: Runner, extra: dict) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": usable,
        "passes": runner.passes,
        "ops_per_pass": len(runner.w.items),
        "harness_stack_depth": runner.depth,
        "recursion_limit": sys.getrecursionlimit(),
        "digest": hashlib.sha256("".join(runner.first_pass).encode()).hexdigest(),
        "digest_ops": len(runner.first_pass),
        **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the set-up time")
    args = parser.parse_args(argv)
    if not (SRC / "deltoids" / "__init__.py").is_file():
        print(f"perfbench: no deltoids source under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        rec = Recorder(traced=bool(args.trace))
        workload, start, end = set_up(args, workdir, rec)
        speed = Speed()
        speed.sample(MIN_SAMPLES)
        setup = {"setup_s": (end - start) * speed.factor(start, end), "raw_s": end - start}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        runner = Runner(workload, rec, args.seconds, speed)
        runner.run(traced=bool(args.trace))
        durations = runner.durations
        failed = len(runner.failed) + len(runner.wrong)
        if args.trace:
            overhead = sum(runner.traced_durations) / sum(durations) - 1
            metrics = layer_metrics(rec.spans, rec.counts, overhead)
            units = layer_metric_units()
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            extra = {"samples": {"traced_ops": len(durations)}, "trace_file": str(trace_path)}
        else:
            if args.workload == "cli-cold":
                peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            else:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            setups = [setup] + probe_setups(args)
            scaled = item_medians(runner.scaled, len(workload.items))
            metrics = {
                **timing_metrics(scaled),
                "ok_frac": 1 - failed / runner.attempted,
                "peak_rss_mb": peak_kb / 1024,
                "setup_s": statistics.median(s["setup_s"] for s in setups),
            }
            units = E2E_UNITS
            p90 = metrics["op_p90_ms"] / 1000
            raw = {**timing_metrics(item_medians(durations, len(workload.items))),
                   "setup_s": statistics.median(s["raw_s"] for s in setups)}
            extra = {
                "samples": {
                    "ops": len(durations),
                    "op_medians": len(scaled),
                    "op_medians_beyond_p90": sum(d > p90 for d in scaled),
                    "setup_s": len(setups),
                    "speed_units": len(speed.units),
                },
                "raw_wall": raw,
                "median_unit_s": statistics.median(speed.units),
            }
        ctx = context(args, runner, extra)
        print(json.dumps({"context": ctx}))
        for label, text in runner.failed:
            print(f"failed op {label}: {text}")
        for label, problems in runner.wrong:
            print(f"WRONG answer {label}: {'; '.join(problems)}")
        print(f"failed_frac {failed / runner.attempted:.6g} ({failed} of {runner.attempted} ops)")
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]}")
        if args.trace:
            trace_path.write_text(json.dumps(
                {"context": ctx, "spans": rec.spans, "counts": rec.counts}), encoding="utf-8")
        print(json.dumps({
            "correct": not runner.wrong,
            "attempted": runner.attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
