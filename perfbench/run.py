#!/usr/bin/env python3
"""vesselnav benchmark: suite time, control-loop latency and per-layer cost.

Run from the root of a vesselnav checkout:

    python3 perfbench/run.py --workload oracle_suite --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

One workload runs in one process with one thread. It drives the library
from outside, through ``cli.parse_suite`` and ``navigator.run_episode``, on a
config it generates from ``--seed``. Episodes run back to back, each loop
waiting for the previous frame (closed loop). The suite is repeated while
``--seconds`` allows, at least once, and timings are medians over the
repetitions. With ``--trace 1`` the run is split: half the time untraced,
then one traced repetition that gives the per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with the environment record and the output fingerprints, goes to
``perfbench/out/``. The exit code is 1 when a correctness check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload  # noqa: E402

# The load model is one thread; BLAS and OpenMP pools are pinned to it.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 7
# Without oracle perception there is no per-frame hook, so one latency sample
# is the mean loop time over this many consecutive episodes. Single episodes
# are too short: their mean is dominated by the route planned at start.
ORACLE_BLOCK_EPISODES = 50
PARSE_REPEATS = 5
MAX_PROBLEMS = 20
# A percentile is reported as a tail only with this many samples beyond it.
TAIL_SAMPLES = 10

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
from vesselnav import cli
cli.parse_suite(sys.argv[1], seed_offset=int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "suite_s": "s",
    "loops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Printed and recorded but not declared in BENCHMARK.json: the loop-latency
# percentiles move by more than the largest allowed bound between runs of
# unchanged code on a shared host (loops_per_s carries the mean latency), and
# the quality metrics are exact, so they are compared by fingerprint.
REPORTED_UNITS = {
    "loop_ms_p50": "ms",
    "loop_ms_p90": "ms",
    "success_rate": "fraction",
    "loops_mean": "loops",
    "tip_error_mm_mean": "mm",
    "tip_error_mm_max": "mm",
    "lift_miss_frac": "fraction",
    "registration.rmse_px_mean": "px",
}


def pin_threads() -> None:
    """Must run before NumPy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json declares, in its order."""
    return {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


def undeclared(kind: str, metrics: dict) -> list[str]:
    """Disagreements between the metrics a run produced and BENCHMARK.json."""
    declared = declared_metrics(kind)
    units = {k: v["unit"] for k, v in metrics.items()}
    if units == declared:
        return []
    return [f"{kind} metrics differ from BENCHMARK.json: produced {units}, declared {declared}"]


def load_program():
    """Import vesselnav from the checkout's ``src``; no other copy is accepted."""
    pkg = ROOT / "src" / "vesselnav"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: {pkg} not found; run the benchmark from a vesselnav checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import vesselnav
    from vesselnav import cli, navigator

    if Path(vesselnav.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported vesselnav from {vesselnav.__file__}, not {pkg}")
    return cli, navigator


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure_setup(ini: Path, offset: int, repeats: int) -> list[float]:
    """Seconds to import vesselnav and parse the suite, each in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(ini), str(offset)],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def control_loops(report) -> int:
    """Loops that issued a decision: the recorded ones plus the final one that
    found the target within reach."""
    return report.loops + int(report.success)


class Pass:
    """One repetition of the workload's suite, summarised episode by episode.

    Reports are folded into running totals and dropped as they arrive, so the
    harness holds no growing heap while it times the program.
    """

    def __init__(self, wl: Workload):
        self.wl = wl
        self.suite_s = 0.0
        self.loops = 0
        self.loop_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []
        self.first_report = None
        self._digest = hashlib.sha256()
        self.records = 0
        self.tip_error_sum = 0.0
        self.tip_error_max = 0.0
        self.lift_misses = 0
        self.rmse_sum = 0.0
        self.successes = 0
        self.success_loops = 0
        self.replans = 0
        self._block = [0, 0.0, 0]  # episodes, seconds, control loops

    def fingerprint(self) -> str:
        return self._digest.hexdigest()

    def add(self, name: str, report, frames: int, wall_s: float, stamps: list[float]) -> None:
        self.attempted += 1
        self.suite_s += wall_s
        self._digest.update(repr(report).encode())
        if self.first_report is None:
            self.first_report = report
        if report is None:
            self.failed += 1
            self.loops += frames
            return
        n = control_loops(report)
        if self.wl.oracle:
            self.loops += n
            block = self._block
            block[0] += 1
            block[1] += wall_s
            block[2] += n
            if block[0] == ORACLE_BLOCK_EPISODES:
                self.close_block()
        else:
            self.loops += frames
            # The first interval of an episode holds its setup; it is dropped.
            self.loop_ms.extend((b - a) * 1e3 for a, b in zip(stamps, stamps[1:]))
            if frames != n:
                self._flag(f"{name}: {frames} frames for {n} control loops")
        if not self.wl.windowed and not report.success:
            self.failed += 1
        self.successes += report.success
        self.success_loops += report.loops if report.success else 0
        self.replans += report.replans
        if report.loops != len(report.records):
            self._flag(f"{name}: loops {report.loops} != {len(report.records)} records")
        for rec in report.records:
            self.records += 1
            err = rec.tip_error_mm
            if not 0.0 <= err < float("inf"):
                self._flag(f"{name} loop {rec.loop_index}: tip error {err}")
            self.tip_error_sum += err
            self.tip_error_max = max(self.tip_error_max, err)
            self.rmse_sum += rec.registration_rmse_px
            if rec.estimated_address != rec.true_address:
                self.lift_misses += 1
                if self.wl.oracle:
                    self._flag(
                        f"{name} loop {rec.loop_index}: oracle estimate {rec.estimated_address} "
                        f"!= true {rec.true_address}"
                    )

    def _flag(self, problem: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)

    def close_block(self) -> None:
        episodes, seconds, loops = self._block
        if episodes:
            self.loop_ms.append(seconds * 1e3 / loops)
        self._block = [0, 0.0, 0]

    def quality(self) -> dict:
        n = self.records
        out = {
            "tip_error_mm_mean": self.tip_error_sum / n if n else None,
            "tip_error_mm_max": self.tip_error_max if n else None,
            "lift_miss_frac": self.lift_misses / n if n else None,
            "registration.rmse_px_mean": None if self.wl.oracle or not n else self.rmse_sum / n,
            "success_rate": None,
            "loops_mean": None,
        }
        if not self.wl.windowed:
            out["success_rate"] = self.successes / self.attempted
            out["loops_mean"] = self.success_loops / self.successes if self.successes else None
        return out


def run_pass(suite, wl: Workload, run_episode, tracer=None) -> Pass:
    """Run every episode of the suite once; only the episodes themselves are timed."""
    p = Pass(wl)
    for task in suite.tasks:
        for seed in task.seeds:
            stamps: list[float] = []
            sink = None if wl.oracle else (lambda i, frame, info, s=stamps: s.append(perf_counter()))
            if tracer is not None:
                tracer.episode = p.attempted
            e0 = perf_counter()
            try:
                report = run_episode(suite.tree, task.start, task.dest, seed=seed, config=suite.episode, frame_sink=sink)
            except Exception:
                # An episode that raises is a failed operation; the suite goes on.
                report = None
                p.errors.append(f"{task.name} seed {seed}: {traceback.format_exc(limit=4)}")
            e1 = perf_counter()
            p.add(f"{task.name} seed {seed}", report, len(stamps), e1 - e0, stamps)
    p.close_block()
    return p


def timeboxed_passes(suite, wl, run_episode, budget_s: float) -> list[Pass]:
    """Repeat the suite while the next repetition is expected to end within
    the budget; at least once. Every repetition after the first keeps only
    its totals."""
    t0 = perf_counter()
    passes = [run_pass(suite, wl, run_episode)]
    while perf_counter() - t0 + passes[-1].suite_s <= budget_s:
        passes.append(run_pass(suite, wl, run_episode))
        passes[-1].first_report = None
    return passes


def check(passes: list[Pass], suite, run_episode) -> list[str]:
    """Correctness checks on the untraced repetitions; returns the failures."""
    problems = [msg for p in passes for msg in p.problems]
    prints = {p.fingerprint() for p in passes}
    if len(prints) != 1:
        problems.append(f"repetitions of one suite gave {len(prints)} different outputs")
    r0 = passes[0].first_report
    if len(passes) == 1 and r0 is not None and r0.records:
        # Byte-identical rerun of the first episode's first loops; max_loops
        # only ends the loop, so the records are a prefix of the full run.
        k = min(2, len(r0.records))
        task = suite.tasks[0]
        cfg = dataclasses.replace(suite.episode, max_loops=k)
        again = run_episode(suite.tree, task.start, task.dest, seed=task.seeds[0], config=cfg)
        if repr(again.records) != repr(r0.records[:k]):
            problems.append("rerun of the first episode gave different records")
    return problems[:MAX_PROBLEMS]


def run_workload(
    wl: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """Run one workload and return the full result record."""
    cli, navigator = load_program()
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{wl.name}-seed{seed}"
    ini = OUT / f"{tag}.ini"
    ini.write_text(wl.config_text())
    offset = wl.seed_offset(seed)
    load_before = loadavg()

    setup = measure_setup(ini, offset, setup_repeats)
    suite = cli.parse_suite(ini, seed_offset=offset)
    untraced_budget = seconds / 2 if trace else seconds
    passes = timeboxed_passes(suite, wl, navigator.run_episode, untraced_budget)
    first = passes[0]
    problems: list[str] = []

    loop_ms = [x for p in passes for x in p.loop_ms]
    suite_s = median(p.suite_s for p in passes)
    end_to_end = {
        "setup_s": median(setup),
        "suite_s": suite_s,
        "loops_per_s": median(p.loops / p.suite_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    fingerprints = {"records": first.fingerprint()}
    result = {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "episodes_per_pass": first.attempted,
        "loops_per_episode_cap": wl.max_loops,
        "windowed": wl.windowed,
        "passes": len(passes),
        "pass_suite_s": [p.suite_s for p in passes],
        "setup_samples_s": setup,
        "loop_ms_samples": len(loop_ms),
        "loop_ms": loop_ms,
        "loop_ms_p90_has_10_beyond": len(loop_ms) * 0.1 >= TAIL_SAMPLES,
        "control_loops_per_pass": first.loops,
        "end_to_end": end_to_end,
        "reported": {
            "loop_ms_p50": percentile(loop_ms, 50),
            "loop_ms_p90": percentile(loop_ms, 90),
            **first.quality(),
        },
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "errors": first.errors[:5],
    }

    if trace:
        from tracing import Tracer, layer_metrics, solver_counts

        tracer = Tracer()
        with tracer.patched():
            parse = tracer.wrap("cli.parse_suite", cli.parse_suite)
            for _ in range(PARSE_REPEATS):
                parse(ini, seed_offset=offset)
            traced = run_pass(suite, wl, tracer.wrap("navigator.run_episode", navigator.run_episode), tracer)
        if traced.fingerprint() != fingerprints["records"]:
            problems.append("the traced repetition gave different records than the untraced ones")
        per_layer = layer_metrics(tracer, wl.oracle)
        per_layer["navigator.replans_per_episode"] = (traced.replans / traced.attempted, "1/episode")
        per_layer["registration.rmse_px_mean"] = (traced.quality()["registration.rmse_px_mean"] or 0.0, "px")
        per_layer["trace.overhead_frac"] = (traced.suite_s / suite_s - 1.0, "fraction")
        counts = solver_counts(tracer)
        fingerprints["solver"] = hashlib.sha256(repr(counts).encode()).hexdigest()
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        problems.extend(undeclared("per_layer", result["per_layer"]))
        result["traced_pass_suite_s"] = traced.suite_s
        tracer.dump(OUT / f"{tag}.spans.jsonl.gz")

    # After the traced repetition, so that the rerun below cannot warm the
    # thinning cache for it.
    problems.extend(check(passes, suite, navigator.run_episode))
    problems.extend(undeclared("end_to_end", {k: {"unit": END_TO_END_UNITS[k]} for k in end_to_end}))
    result["fingerprints"] = fingerprints
    result["problems"] = problems
    result["loadavg"] = {"before": load_before, "after": loadavg()}
    result["environment"] = environment()
    return result


def print_report(result: dict) -> None:
    """Human-readable lines: every metric by name and unit."""
    wl = result["workload"]
    print(f"# workload {wl} seed {result['seed']} trace {int(result['trace'])}: {result['why']}")
    print(
        f"# {result['passes']} repetition(s) of {result['episodes_per_pass']} episodes, "
        f"{result['control_loops_per_pass']} control loops each; "
        f"{result['loop_ms_samples']} loop-latency samples"
        + ("" if result["loop_ms_p90_has_10_beyond"] else " (fewer than 10 beyond p90)")
    )
    for name, value in result["end_to_end"].items():
        print(f"{wl} {name} = {value!r} {END_TO_END_UNITS[name]}")
    for name, value in result["reported"].items():
        if value is None:
            shown = "n/a (episodes are cut at the window)" if result["windowed"] and name in ("success_rate", "loops_mean") else "n/a"
        else:
            shown = f"{value!r} {REPORTED_UNITS[name]}"
        print(f"{wl} {name} = {shown}")
    for name, entry in result.get("per_layer", {}).items():
        print(f"{wl} {name} = {entry['value']!r} {entry['unit']}")
    print(f"# fingerprints {json.dumps(result['fingerprints'])}")
    env = result["environment"]
    print(
        f"# env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
        f"threads={env['threads']} loadavg before [{result['loadavg']['before']}] after [{result['loadavg']['after']}]"
    )
    for problem in result["problems"]:
        print(f"# CHECK FAILED: {problem}")


def summary_line(result: dict) -> dict:
    if result["trace"]:
        metrics = result["per_layer"]
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in result["end_to_end"].items()}
    order = list(declared_metrics("per_layer" if result["trace"] else "end_to_end"))
    metrics = dict(sorted(metrics.items(), key=lambda kv: order.index(kv[0]) if kv[0] in order else len(order)))
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in its own process; results are gathered into one file."""
    results, status = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        if done.returncode in (0, 1) and path.exists():
            results.append(json.loads(path.read_text()))
        else:
            status = status or 1
    (OUT / f"all-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(results, indent=2) + "\n")
    summary = {
        "correct": status == 0 and all(not r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{r['workload']}.{k}": v for r in results for k, v in summary_line(r)["metrics"].items()},
    }
    print(json.dumps(summary))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    pin_threads()
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print_report(result)
    print(json.dumps(summary_line(result)))
    return 1 if result["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
