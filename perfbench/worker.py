"""One measured pass of a workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC_JSON

``SPEC_JSON`` holds ``src``, ``workload``, ``seed``, ``configs`` (config
name -> generated file), ``out_root``, ``traced`` and ``setup_only``.  The
worker times ``import semistab`` plus one ``parse_config`` per config, then,
unless ``setup_only``, runs the workload's operations once, each into its own
new directory under ``out_root``.  It prints one JSON line: the set-up time,
per-operation exit code, wall and CPU seconds, the process's peak resident
memory and, when traced, the tracer's counts and self times.

A pass gets its own process because glibc's adaptive mmap and trim
thresholds leave a long-lived process in a state that differs from run to
run: repeated in-process passes of weighted_sweep took between 7 thousand
and 420 thousand page faults each, while a fresh process takes the same
number every time, as a user's single command does.
"""

import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv):
    spec = json.loads(argv[0])
    texts = []
    for path in spec["configs"].values():
        with open(path, "r", encoding="utf-8") as handle:
            texts.append(handle.read())
    sys.path.insert(0, spec["src"])
    started = time.perf_counter()
    import semistab
    for text in texts:
        semistab.parse_config(text)
    result = {"setup_s": time.perf_counter() - started}
    if not spec["setup_only"]:
        tracer = tracing.Tracer()
        if spec["traced"]:
            tracer.install()
        ops = []
        for i, op in enumerate(workloads.operations(spec["workload"],
                                                    spec["seed"])):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                code = workloads.execute(op, spec["configs"].get(op.config),
                                         os.path.join(spec["out_root"], f"op{i}"))
            except Exception:
                traceback.print_exc()
                code = None
            ops.append({"code": code,
                        "wall_s": time.perf_counter() - wall0,
                        "cpu_s": time.process_time() - cpu0})
        result["ops"] = ops
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if spec["traced"]:
            result["trace"] = tracer.snapshot()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
