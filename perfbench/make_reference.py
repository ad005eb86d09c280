"""Regenerate ``reference.json``, the expected outputs the gate checks.

Usage, from the repository root:

    python3 perfbench/make_reference.py

Runs every operation of every workload at every jitter level, requires
every verdict to PASS (or to be SKIPPED where the check does not apply),
and stores the verdict statuses per operation and the sampled curves per
config and level.  Takes several minutes, most of it in
the 16 stretch theorem-checks.  Run it only when the program's intended
outputs change, and say so where the change is described.
"""

import dataclasses
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main():
    verdicts = {}
    curves = {}
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        for name in workloads.WORKLOADS:
            for level in range(workloads.JITTER_LEVELS):
                ops = [dataclasses.replace(op, level=level) if op.config else op
                       for op in workloads.operations(name, seed=level)]
                paths = workloads.write_configs(ops, tmp)
                for i, op in enumerate(ops):
                    out_dir = os.path.join(tmp, f"{name}.{level}.{i}")
                    code = workloads.execute(op, paths.get(op.config), out_dir)
                    with open(os.path.join(out_dir, "report.json"), "r",
                              encoding="utf-8") as handle:
                        report = json.load(handle)
                    statuses = {k: v["status"]
                                for k, v in report["verdicts"].items()}
                    if code != 0 or not set(statuses.values()) <= {
                            "PASS", "SKIPPED"}:
                        raise SystemExit(f"{op.key} level {level}: exit {code}, "
                                         f"verdicts {statuses}")
                    if verdicts.setdefault(op.key, statuses) != statuses:
                        raise SystemExit(f"{op.key}: verdict set changed")
                    if op.curve_key is not None:
                        got = workloads.curves_of(report)
                        if curves.setdefault(op.curve_key, got) != got:
                            raise SystemExit(f"{op.curve_key}: curves differ "
                                             f"between commands")
                print(f"{name} level {level}: ok", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump({"verdicts": verdicts, "curves": curves}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
