"""End-to-end benchmark of the multinv CLI.

Usage, from the repository root:

    python3 bench/run.py --workload census --seed 1 --seconds 50 --trace 0

Each job is one ``multinv.cli.main(argv)`` call made in this process on a
jobspec written during set-up (see ``workloads.py``).  Jobs run as a closed
loop with one client: whole passes over the seeded job list repeat for as
close to ``--seconds`` as whole passes allow.  Wall time is taken around each
call; outputs are checked after the loop (``checks.py``).

Time metrics are given at a reference host speed.  A short fixed loop that
does not use multinv runs between jobs about every ``HOST_SAMPLE_EVERY_S``,
outside the timed calls, and every time metric is scaled by
``HOST_REFERENCE_S`` over the loop's mean time in that run.  On a shared VM
the host's speed moves by up to 40% over tens of seconds to minutes; the
scaling takes that out and leaves the program's own speed.  The unscaled
figures are printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half the time and traced passes for the other half, and prints the
per-layer metrics of ``tracer.py``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")
WORKLOADS = ("census", "explore")
SETUP_REPEATS = 7
HOST_SAMPLE_EVERY_S = 0.2
# mean host_loop_s() on a 2-vCPU Intel Xeon VM (Python 3.11) in its slower,
# more common state; time metrics are reported as if every loop took this long
HOST_REFERENCE_S = 0.0125


def _use_checkout_sources() -> None:
    if not os.path.isfile(os.path.join(SRC, "multinv", "__init__.py")):
        sys.exit(f"error: no multinv sources under {SRC}")
    sys.path.insert(0, SRC)


def host_loop_s() -> float:
    """A fixed pure-Python loop that does not touch multinv: a reading of the
    host's speed at this moment."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def _setup(workload: str, seed: int, directory: str):
    from workloads import build_jobs, write_jobspecs

    jobs = build_jobs(workload, seed)
    write_jobspecs(jobs, directory)
    return jobs


def measure_setup(workload: str, seed: int, directory: str) -> float:
    """Set-up time of a fresh process: interpreter start, ``import multinv``,
    building the groups and subgroups and writing the jobspecs."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only", directory,
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    shutil.rmtree(directory)
    return float(proc.stdout.split()[-1]) - start


class Runner:
    """Runs passes over the job list and keeps every distinct output."""

    def __init__(self, jobs):
        import multinv.cli  # after _use_checkout_sources() put src/ on the path

        self.cli = multinv.cli
        self.jobs = jobs
        self.latencies: list[float] = []
        self.pass_walls: list[float] = []
        self.host: list[float] = []  # host_loop_s() readings between jobs
        self.output_bytes: list[int] = []
        # (job index, exit code, output digest) -> [occurrences, output]
        self.outputs: dict[tuple, list] = {}

    def run_pass(self) -> float:
        latencies = []
        nbytes = 0
        clock = time.perf_counter
        start = last_sample = clock()
        sampling = 0.0
        for i, job in enumerate(self.jobs):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = clock()
                try:
                    code = self.cli.main(job.argv())
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception:
                    code = -1
                    err.write(traceback.format_exc())
                latencies.append(clock() - t0)
            text = out.getvalue()
            nbytes += len(text)
            key = (i, code, hashlib.sha1(text.encode()).digest())
            seen = self.outputs.get(key)
            if seen is None:
                self.outputs[key] = [1, text if code == 0 else err.getvalue()]
            else:
                seen[0] += 1
            if clock() - last_sample >= HOST_SAMPLE_EVERY_S:
                t0 = clock()
                self.host.append(host_loop_s())
                last_sample = clock()
                sampling += last_sample - t0
        wall = clock() - start - sampling
        self.latencies += latencies
        self.pass_walls.append(wall)
        self.output_bytes.append(nbytes)
        gc.collect()
        return wall

    def run_for(self, seconds: float, between) -> int:
        """Whole passes, at least one, for as close to ``seconds`` as whole
        passes allow; calls ``between()`` after each and returns the count."""
        passes, elapsed, wall = 0, 0.0, 0.0
        while passes == 0 or elapsed + wall / 2 < seconds:
            wall = self.run_pass()
            elapsed += wall
            passes += 1
            between()
        return passes

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def check_outputs(runner: Runner, checker) -> tuple[int, list[str]]:
    """Returns (failed job count, problem descriptions)."""
    failed, problems = 0, []
    for (i, code, _), (count, text) in runner.outputs.items():
        job = runner.jobs[i]
        try:
            found = checker.check(job, code, text)
        except Exception as exc:  # a malformed report must not stop the run
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            failed += count
            if code and text.strip():
                found.append(text.strip().splitlines()[-1])
            problems.append(f"{job.name}: {'; '.join(found)}")
    return failed, problems


def _line(name: str, value: float, unit: str, note: str) -> str:
    return f"{name:<14} = {value:.6g} {unit:<5} ({note})"


def _unknown_share(runner: Runner) -> tuple[int, int]:
    """(Unknown/R8 verdicts, classify jobs) over every pass."""
    unknown = classified = 0
    for (i, code, _), (count, text) in runner.outputs.items():
        if runner.jobs[i].command == "classify":
            classified += count
            if code == 0 and '"status": "Unknown"' in text:
                unknown += count
    return unknown, classified


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(runner: Runner, setup_times: list[float], peak_rss_mb: float,
               slowdown: float) -> dict:
    """Time metrics over every call of the run, divided by ``slowdown``."""
    lat_ms = [x * 1000 / slowdown for x in runner.latencies]
    note = f"{len(lat_ms)} calls in {len(runner.pass_walls)} passes"
    return {
        "setup_s": (statistics.median(setup_times) / slowdown, "s",
                    f"median of {len(setup_times)} fresh-process set-ups"),
        "jobs_per_s": (len(lat_ms) * slowdown / sum(runner.pass_walls), "1/s", note),
        "p50_ms": (statistics.median(lat_ms), "ms", note),
        "p90_ms": (_p90(lat_ms), "ms", note),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of the process"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="multinv CLI benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_checkout_sources()

    if args.setup_only:
        _setup(args.workload, args.seed, args.setup_only)
        print(time.monotonic())
        return 0

    from checks import Checker

    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        jobs = _setup(args.workload, args.seed, os.path.join(work, "jobs"))
        checker = Checker(args.workload)
        runner = Runner(jobs)
        setup_times: list[float] = []

        def between_passes():
            # set-ups are spread over the run, so that their median sees the
            # same host as the timed passes
            if not args.trace and len(setup_times) < SETUP_REPEATS:
                setup_times.append(measure_setup(args.workload, args.seed,
                                                 os.path.join(work, "setup")))

        gc.collect()
        gc.freeze()  # set-up objects are not part of any job's heap
        if args.trace:
            import tracer as tracing

            untraced = runner.run_for(args.seconds / 2, between_passes)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = runner.run_for(args.seconds / 2, between_passes)
            finally:
                tracer.uninstall()
        else:
            runner.run_for(args.seconds, between_passes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        gc.unfreeze()

        failed, problems = check_outputs(runner, checker)
        while not args.trace and len(setup_times) < SETUP_REPEATS:
            between_passes()
        host_ms = statistics.fmean(runner.host) * 1000
        slowdown = host_ms / 1000 / HOST_REFERENCE_S
        unknown, classified = _unknown_share(runner)
        attempted = runner.attempted
        walls = runner.pass_walls

        print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs per pass, "
              f"{len(walls)} passes in {sum(walls):.2f} s, closed loop, 1 client")
        print("pass walls (s): " + " ".join(f"{w:.3f}" for w in walls))
        lat_ms = [x * 1000 for x in runner.latencies]
        print(f"unscaled: {attempted / sum(walls):.4g} jobs/s, p50 {statistics.median(lat_ms):.4g} ms, "
              f"p90 {_p90(lat_ms):.4g} ms, setup "
              f"{statistics.median(setup_times) if setup_times else float('nan'):.4g} s")
        for line in problems:
            print(f"FAILED {line}")
        print(_line("failed_share", failed / attempted, "", f"{failed} of {attempted} jobs"))
        if classified:
            print(_line("unknown_share", unknown / classified, "",
                        f"{unknown} Unknown/R8 of {classified} classify jobs"))
        print(_line("host_loop_ms", host_ms, "ms",
                    f"mean of {len(runner.host)} fixed loops without multinv; "
                    f"time metrics below are divided by {slowdown:.4f}"))

        if not args.trace:
            metrics = end_to_end(runner, setup_times, peak_rss_mb, slowdown)
            for name, (value, unit, note) in metrics.items():
                print(_line(name, value, unit, note))
        else:
            metrics = tracing.layer_metrics(tracer, traced)
            metrics.update({
                "cli.output_bytes": (statistics.median(runner.output_bytes), "bytes"),
                "classify.unknown_share": (unknown / classified if classified else 0.0, "ratio"),
                "trace.overhead": (statistics.median(walls[untraced:])
                                   / statistics.median(walls[:untraced]), "ratio"),
                "host.loop_ms": (host_ms, "ms"),
            })
            tracer.write(os.path.join(WORK_DIR, f"spans-{args.workload}.npz"))
            print(f"traced {traced} of {len(walls)} passes; {len(tracer.name_id)} spans")
            for name, (value, unit) in metrics.items():
                print(f"{name:<48} {value:.6g} {unit}")
        correct = failed == 0
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": {name: {"value": m[0], "unit": m[1]}
                                      for name, m in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
