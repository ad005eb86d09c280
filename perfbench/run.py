"""Benchmark of the semistab package, driven through its public API.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

All three workloads in one command:

    for w in theorem_stretch weighted_sweep desk_suite; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 35 --trace 0
    done

Workloads are defined in ``workloads.py``.  The run repeats passes over the
workload's operations for about ``--seconds`` seconds, each pass in a fresh
interpreter (``worker.py``), gates every operation's output against
``reference.json``, and prints a summary followed by one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, ``cpu_s`` and
``peak_rss_mb`` (medians over passes) and ``setup_s`` (median over fresh
interpreters).  ``--trace 1`` alternates traced and untraced passes and
reports per-layer calls, self times and counters, the tracing overhead and
the share of traced wall time the spans cover.  Metric names and units come
from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: One BLAS thread.  A second one, on a 2-core machine, doubled cpu_s on
#: weighted_sweep without lowering its wall_s.
BLAS_THREADS = "1"

#: Set-up-only interpreters started per end-to-end run, after one that fills
#: the bytecode cache.  Pass workers add their own set-up samples.
SETUP_PROBES = 7

WORKER_TIMEOUT_S = 150


class Runner:
    """Starts workers for one workload and gates what they leave behind."""

    def __init__(self, workload, seed, tmp):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.ops = workloads.operations(workload, seed)
        self.configs = workloads.write_configs(self.ops, tmp)
        self.reference = workloads.load_reference()
        self.env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS
        self.setup = []
        self.passes = []

    def spawn(self, out_root, traced=False, setup_only=False):
        """Run one worker; returns its JSON result, or None if it crashed."""
        spec = {"src": SRC, "workload": self.workload, "seed": self.seed,
                "configs": self.configs, "out_root": out_root,
                "traced": traced, "setup_only": setup_only}
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            env=self.env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return None
        return json.loads(done.stdout.strip().splitlines()[-1])

    def probe_setup(self, count):
        self.spawn(self.tmp, setup_only=True)
        for _ in range(count):
            result = self.spawn(self.tmp, setup_only=True)
            if result is not None:
                self.setup.append(result["setup_s"])

    def one_pass(self, traced):
        """Run and gate one pass.  A crashed worker fails all its operations."""
        out_root = os.path.join(self.tmp, f"pass{len(self.passes)}")
        result = self.spawn(out_root, traced=traced)
        failed = len(self.ops)
        if result is not None:
            self.setup.append(result["setup_s"])
            failed = 0
            for i, (op, ran) in enumerate(zip(self.ops, result["ops"])):
                problems = (["raised"] if ran["code"] is None else
                            workloads.gate(op, ran["code"],
                                           os.path.join(out_root, f"op{i}"),
                                           self.reference))
                if problems:
                    failed += 1
                    print(f"FAILED {op.key}: {'; '.join(problems)}",
                          file=sys.stderr)
        shutil.rmtree(out_root, ignore_errors=True)
        self.passes.append({"traced": traced, "failed": failed,
                            "result": result})

    def repeat(self, seconds, min_passes, traced_at):
        """Run passes until another one would overrun ``seconds``."""
        started = time.perf_counter()
        while True:
            self.one_pass(traced_at(len(self.passes)))
            elapsed = time.perf_counter() - started
            if (len(self.passes) >= min_passes
                    and elapsed + elapsed / len(self.passes) > seconds):
                return

    def completed(self, traced):
        return [p["result"] for p in self.passes
                if p["result"] is not None and p["traced"] == traced]


def pass_total(result, key):
    return sum(op[key] for op in result["ops"])


def end_to_end(runner, seconds):
    runner.probe_setup(SETUP_PROBES)
    runner.repeat(seconds, 1, lambda i: False)
    done = runner.completed(traced=False)
    if not done or not runner.setup:
        return {}, {}, ["no pass completed"]
    walls = [pass_total(r, "wall_s") for r in done]
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(pass_total(r, "cpu_s") for r in done),
        "setup_s": statistics.median(runner.setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
    }
    notes = {"wall_s": f"median of {len(walls)} passes, "
                       f"range {min(walls):.4g}..{max(walls):.4g}",
             "cpu_s": f"median of {len(walls)} passes",
             "setup_s": f"median of {len(runner.setup)} fresh interpreters",
             "peak_rss_mb": f"median of {len(walls)} pass processes"}
    return values, notes, []


def per_layer(runner, seconds):
    # Traced and untraced passes alternate, traced first; two traced passes
    # at least, so that their counts can be compared.
    runner.repeat(seconds, 3, lambda i: i % 2 == 0)
    traced = runner.completed(traced=True)
    untraced = runner.completed(traced=False)
    if len(traced) < 2 or not untraced:
        return {}, {}, ["too few passes completed"]
    traced_walls = [pass_total(r, "wall_s") for r in traced]
    values = {}
    problems = []
    for name in traced[0]["trace"]:
        series = [r["trace"][name] for r in traced]
        if name.endswith(".self_s"):
            values[name] = statistics.median(series)
        else:
            values[name] = series[0]
            if len(set(series)) != 1:
                problems.append(f"{name} differs between traced passes: "
                                f"{series}")
    values["trace.wall_s"] = statistics.median(traced_walls)
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(
        pass_total(r, "wall_s") for r in untraced)
    values["trace.coverage"] = statistics.median(
        sum(v for k, v in r["trace"].items() if k.endswith(".self_s")) / wall
        for r, wall in zip(traced, traced_walls))
    notes = {"trace.wall_s": f"median of {len(traced)} traced passes",
             "trace.overhead_s": f"against the median of {len(untraced)} "
                                 f"untraced passes"}
    return values, notes, problems


def source_lines() -> int:
    package = os.path.join(SRC, "semistab")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                total += handle.read().count(b"\n")
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "semistab", "__init__.py")):
        print(f"error: no semistab package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        runner = Runner(args.workload, args.seed, tmp)
        measure = per_layer if args.trace else end_to_end
        values, notes, problems = measure(runner, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    attempted = len(runner.ops) * len(runner.passes)
    failed = sum(p["failed"] for p in runner.passes)
    unmatched = {m["name"] for m in declared} ^ set(values)
    if unmatched:
        problems.append(f"metrics not matching BENCHMARK.json: "
                        f"{sorted(unmatched)}")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(runner.passes)}  BLAS threads {BLAS_THREADS}")
    for metric in declared:
        name = metric["name"]
        if name in values:
            print(f"  {name} = {values[name]:.6g} {metric['unit']}"
                  + (f"  ({notes[name]})" if name in notes else ""))
    print(f"  failed_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    print(f"  src_lines = {source_lines()} (informational, "
          f"src/semistab/*.py)")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
