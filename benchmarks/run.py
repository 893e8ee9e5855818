"""hardynum benchmark: one workload, closed loop, one client, one task in flight.

    python3 benchmarks/run.py --workload mc_tail --seed 0 --seconds 30 --trace 0

Run from a source checkout; the package is imported from ``src/``. Cycles of
tasks run until ``--seconds`` have passed (the cycle in flight finishes). The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones, measured untraced; with ``--trace 1`` they are the per-layer
ones, from a traced re-run of the tasks of an untraced first half. Lines
before it give every metric with its unit, the failures and the provenance.
Everything the run writes goes under ``.bench_out/`` in the checkout.

``correct`` is false when a task gives a wrong answer, fails in a way that is
not a known defect, the determinism re-run changes a byte, or (traced) a
workload reaches a layer it must bypass. ``failed`` counts every failed task,
the known defects included.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail percentile is the highest with this many tasks beyond it


@dataclass
class TaskResult:
    index: int
    label: str
    seconds: float
    problems: list[str]
    known: bool = False  # every problem is the task's known defect
    pairs: list[tuple[float, float]] = field(default_factory=list)
    reaches: list[float] = field(default_factory=list)


def _import_package():
    """Import hardynum from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "hardynum" / "__init__.py").is_file():
        print(f"error: no hardynum sources under {SRC}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    for var in THREAD_CAPS:  # before numpy is imported
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import hardynum

    if SRC.resolve() not in Path(hardynum.__file__).resolve().parents:
        print(f"error: imported hardynum from {hardynum.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def _clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


class Runner:
    """Runs tasks in process; ``main`` is the CLI entry point, traced or not."""

    def __init__(self, main):
        self.main = main

    def run_steps(self, steps) -> list[str]:
        problems = []
        for step in steps:
            if step.argv is not None:
                out, err = io.StringIO(), io.StringIO()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        rc = self.main(step.argv)
                except Exception:
                    problems.append(f"{step.label}: {traceback.format_exc(limit=3).strip()}")
                    break
                if rc != 0:
                    problems.append(f"{step.label}: exit {rc}: {err.getvalue().strip()}")
                    break
            else:
                try:
                    step.api()
                except Exception:
                    problems.append(f"{step.label}: {traceback.format_exc(limit=3).strip()}")
                    break
        return problems

    def run_task(self, task) -> TaskResult:
        _clear(task.out)
        t0 = time.perf_counter()
        problems = self.run_steps(task.steps)
        seconds = time.perf_counter() - t0
        pairs, reaches = [], []
        if not problems:
            problems, pairs, reaches = task.check(task)
        known = bool(problems) and task.known_defect is not None and all(
            task.known_defect in p for p in problems)
        return TaskResult(task.index, task.label, seconds, problems, known, pairs, reaches)


def run_closed_loop(runner: Runner, cycles, seconds: float):
    """Start whole cycles until ``seconds`` have passed; return tasks, results, wall."""
    tasks, results = [], []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        for task in next(cycles):
            tasks.append(task)
            results.append(runner.run_task(task))
    return tasks, results, time.perf_counter() - t0


def _cpu_s() -> float:
    """User + system CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def measure_setup(workload_name: str, work: Path) -> float:
    """Median of fresh-interpreter import + parser build plus input set-up."""
    import workloads

    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import hardynum.cli as c; c.build_parser()"
    samples = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT, check=True)
        workloads.set_up(workload_name, work / f"setup{k}")
        samples.append(time.perf_counter() - t0)
        shutil.rmtree(work / f"setup{k}", ignore_errors=True)
    return statistics.median(samples)


def tail_percentile(times: list[float]) -> tuple[float, str]:
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n} tasks (fewer than {TAIL_BEYOND + 1})"
    k = n - TAIL_BEYOND - 1
    return ordered[k], f"p{100.0 * (k + 1) / n:.1f} of {n} tasks, {TAIL_BEYOND} beyond"


def end_to_end(results, wall: float, cpu: float, setup_s: float):
    """The end-to-end metrics as {name: (value, unit)} and the notes printed beside them."""
    times = [r.seconds for r in results]
    n = len(results)
    tail, tail_note = tail_percentile(times)
    errors = [(est - true) / true for r in results for est, true in r.pairs]
    q_rel_rmse = math.sqrt(sum(e * e for e in errors) / len(errors)) if errors else math.nan
    cpu_per_task = cpu / n
    metrics = {
        "setup_s": (setup_s, "s"),
        "task_s_p50": (statistics.median(times), "s"),
        "task_s_tail": (tail, "s"),
        "tasks_per_s": (n / wall, "1/s"),
        "cpu_s_per_task": (cpu_per_task, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "q_rel_rmse": (q_rel_rmse, "1"),
    }
    reaches = [x for r in results for x in r.reaches]
    failed = sum(1 for r in results if r.problems)
    report_only = {
        "q_mse_cpu_s": (q_rel_rmse**2 * cpu_per_task, "s"),
        "fail_ratio": (failed / n, "ratio"),
        "tail_reach_log2": (sum(reaches) / len(reaches) if reaches else math.nan, "doublings"),
    }
    notes = {"task_s_tail": tail_note, "q_rel_rmse": f"over {len(errors)} estimates",
             "fail_ratio": f"{failed}/{n} tasks"}
    return metrics, report_only, notes


def provenance(workload: str, seed: int, seconds: int, trace: int, tasks: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hardynum").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_CAPS},
        "tasks": tasks,
    }


def _print_metrics(metrics, notes) -> None:
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<34} {value:>14.6g} {unit}{note}")


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return run(args.workload, args.seed, args.seconds, args.trace)


def run(workload: str, seed: int, seconds: int, trace: int) -> int:
    import workloads
    from hardynum import cli

    work = OUT / f"{workload}-seed{seed}-trace{trace}"
    _clear(work)
    setup_s = measure_setup(workload, work)
    wl = workloads.set_up(workload, work)
    runner = Runner(cli.main)

    cpu0 = _cpu_s()
    tasks, results, wall = run_closed_loop(runner, wl.cycles(seed), seconds / 2 if trace else seconds)
    cpu = _cpu_s() - cpu0

    problems_beyond_tasks = []
    if workload == "mc_tail":
        problems = workloads.determinism_problems(tasks[0], wl.domains, runner.run_steps)
        if problems:
            results[0].problems.extend(problems)
            results[0].known = False

    if trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        traced_runner = Runner(tracer.wrap("cli", "main", cli.main))
        traced = []
        with tracer.installed():
            for task in tasks:
                tracer.task = task.index
                traced.append(traced_runner.run_task(task))
        tracer.task = None
        tracer.write(OUT / f"trace-{workload}-seed{seed}.csv")
        metrics = layer_metrics(tracer, len(tasks), sum(r.seconds for r in traced),
                                sum(r.seconds for r in results))
        isolation = {"norms_catalog": "wos.walker_steps", "mc_tail": "function_norms.quad_neval"}
        if workload in isolation and metrics[isolation[workload]][0] != 0:
            problems_beyond_tasks.append(
                f"layer isolation: {isolation[workload]} = {metrics[isolation[workload]][0]} on {workload}")
        results += traced
        notes, report_only = {}, {}
    else:
        metrics, report_only, notes = end_to_end(results, wall, cpu, setup_s)

    for r in results:
        for problem in r.problems:
            tag = "known defect" if r.known else "FAIL"
            print(f"{tag} [{workload} task {r.index}: {r.label}] {problem}", file=sys.stderr)
    for problem in problems_beyond_tasks:
        print(f"FAIL [{workload}] {problem}", file=sys.stderr)

    failed = sum(1 for r in results if r.problems)
    correct = not problems_beyond_tasks and all(r.known for r in results if r.problems)
    print(f"workload {workload} seed {seed} trace {trace}: {len(results)} tasks in "
          f"{wall:.2f} s, {failed} failed, correct={correct}")
    _print_metrics({**metrics, **report_only}, notes)
    info = provenance(workload, seed, seconds, trace, len(results))
    print("provenance " + json.dumps(info, sort_keys=True))
    summary = {
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({**summary, "report_only": {k: {"value": v, "unit": u}
                                               for k, (v, u) in report_only.items()},
                    "provenance": info,
                    "task_seconds": [r.seconds for r in results],
                    "failures": [{"task": r.index, "label": r.label, "problems": r.problems,
                                  "known_defect": r.known} for r in results if r.problems]},
                   indent=1, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    _import_package()
    sys.exit(main())
