"""Workload definitions, seeded config generation and the correctness gate.

A workload is a list of operations.  Each operation runs one command of the
program on a generated config, writes its outputs into a directory that did
not exist before, and is then checked against ``reference.json``: the exit
code, every verdict status, and the sampled norm curves.

The seed changes two inputs and nothing else:

* ``hardy --seed`` of the Hardy operation;
* a jitter of each config's ``grid.t_min``, upward by ``level / 1600`` with
  ``level`` drawn from ``range(JITTER_LEVELS)``, so by less than 1%.  Moving
  only ``t_min`` up keeps ``t_max``, hence every truncation dimension, and
  keeps every grid inside its fit window.  The levels are discrete so that
  the reference can hold the curves of every level.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass

JITTER_LEVELS = 16

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

_GRID_GEOMETRIC = "grid.spacing = GEOMETRIC\n"

# Copies of the shipped configs, held here so that an edit to the repo's own
# configs cannot silently change what the benchmark measures.  Output
# directories are left out: every operation passes ``--out``.
BASE_CONFIGS = {
    "diag_jordan": (
        "model.family = DIAG_JORDAN\nmodel.max_index = auto\nmodel.mu = 1+0j\n"
        "grid.t_min = 1.0\ngrid.t_max = 200.0\ngrid.points = 24\n"
        + _GRID_GEOMETRIC),
    "jordan_pairs": (
        "model.family = JORDAN_PAIRS\nmodel.max_index = auto\nmodel.mu = 1+0j\n"
        "grid.t_min = 1.0\ngrid.t_max = 200.0\ngrid.points = 24\n"
        + _GRID_GEOMETRIC),
    "log_spectrum_n1": (
        "model.family = LOG_SPECTRUM\nmodel.max_index = auto\nmodel.order = 1\n"
        "model.mu = 1+0j\ngrid.t_min = 7.389056098930650\ngrid.t_max = 200.0\n"
        "grid.points = 16\n" + _GRID_GEOMETRIC
        + "checks.top_k = 5\nchecks.translation_shift = 1.0\n"),
    "log_spectrum_n2": (
        "model.family = LOG_SPECTRUM\nmodel.max_index = auto\nmodel.order = 2\n"
        "model.mu = 1+0j\ngrid.t_min = 7.389056098930650\ngrid.t_max = 200.0\n"
        "grid.points = 16\n" + _GRID_GEOMETRIC
        + "checks.top_k = 5\nchecks.translation_shift = 1.0\n"),
}
# JORDAN_PAIRS at t_max = 2000: dim 199998, just under the CLI's default
# --max-dim cap of 200000.
BASE_CONFIGS["jordan_pairs_t2000"] = BASE_CONFIGS["jordan_pairs"].replace(
    "grid.t_max = 200.0", "grid.t_max = 2000.0")
# Order-2 LOG_SPECTRUM at t_max = 20000: dim 160000.
BASE_CONFIGS["log_spectrum_n2_t20000"] = BASE_CONFIGS["log_spectrum_n2"].replace(
    "grid.t_max = 200.0", "grid.t_max = 20000.0")

HARDY_CASES = 10000
WITNESS_TS = "10,20,40,80"

DESK_CONFIGS = ("diag_jordan", "jordan_pairs", "log_spectrum_n1",
                "log_spectrum_n2")

WORKLOADS = ("theorem_stretch", "weighted_sweep", "desk_suite")


def jitter_levels(seed: int, names) -> dict:
    """The t_min jitter level of each config, drawn from the seed."""
    rng = random.Random(seed)
    return {name: rng.randrange(JITTER_LEVELS) for name in names}


def config_text(name: str, level: int) -> str:
    """Base config ``name`` with ``grid.t_min`` raised by ``level / 1600``."""
    lines = BASE_CONFIGS[name].splitlines()
    for i, line in enumerate(lines):
        key, _, value = line.partition("=")
        if key.strip() == "grid.t_min":
            t_min = float(value) * (1.0 + level / 1600.0)
            lines[i] = f"grid.t_min = {t_min!r}"
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Operation:
    """One command run on generated inputs, with what its gate expects.

    ``kind`` is the CLI command.  ``config`` names the base config, or is
    None for hardy and witness.  ``via_cli`` selects ``cli.main`` over the
    ``run_*`` runner.  ``key`` indexes the expected verdicts; ``curve_key``
    indexes the expected curves, or is None when the output has no curve
    fixed by the inputs.
    """

    kind: str
    config: str | None
    level: int
    via_cli: bool
    seed: int = 0

    @property
    def key(self) -> str:
        return f"{self.kind}:{self.config}" if self.config else self.kind

    @property
    def curve_key(self):
        if self.config:
            return f"{self.config}:{self.level}"
        return "witness" if self.kind == "witness" else None


def operations(workload: str, seed: int) -> list:
    """The operations of one pass of ``workload`` under ``seed``."""
    # The ROADMAP's stretch target.  Blockwise closed forms in models and
    # contour quadrature in spectral take the time; linalg stays idle because
    # the Euclidean norm is a block sup-norm.
    if workload == "theorem_stretch":
        levels = jitter_levels(seed, ["jordan_pairs_t2000"])
        return [Operation("theorem-check", "jordan_pairs_t2000",
                          levels["jordan_pairs_t2000"], via_cli=False)]
    # Weighted power iteration in linalg takes the time and spectral is never
    # called: a quadrature change must not move it, a power-iteration change
    # must.
    if workload == "weighted_sweep":
        levels = jitter_levels(seed, ["log_spectrum_n2_t20000"])
        return [Operation("simulate", "log_spectrum_n2_t20000",
                          levels["log_spectrum_n2_t20000"], via_cli=False)]
    # Every command at desk size: per-call overhead, the 10000-case hardy
    # loop and report emission dominate, so fixed costs that a stretch-scale
    # optimisation adds show here.
    if workload == "desk_suite":
        levels = jitter_levels(seed, DESK_CONFIGS)
        ops = [Operation(kind, name, levels[name], via_cli=True)
               for name in DESK_CONFIGS
               for kind in ("simulate", "theorem-check")]
        ops.append(Operation("hardy", None, 0, via_cli=True,
                             seed=seed % 2 ** 32))
        ops.append(Operation("witness", None, 0, via_cli=True))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(ops, directory: str) -> dict:
    """Write each generated config once; returns config name -> path."""
    paths = {}
    for op in ops:
        if op.config and op.config not in paths:
            path = os.path.join(directory, f"{op.config}.{op.level}.cfg")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(config_text(op.config, op.level))
            paths[op.config] = path
    return paths


def execute(op: Operation, config_path, out_dir: str) -> int:
    """Run one operation; returns its exit code."""
    from semistab import cli, experiments
    if op.via_cli:
        if op.config:
            argv = [op.kind, "--config", config_path, "--out", out_dir]
        elif op.kind == "hardy":
            argv = ["hardy", "--cases", str(HARDY_CASES), "--seed", str(op.seed),
                    "--out", out_dir]
        else:
            argv = ["witness", "--t", WITNESS_TS, "--out", out_dir]
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)
    with open(config_path, "r", encoding="utf-8") as handle:
        cfg = experiments.parse_config(handle.read())
    runner = (experiments.run_theorem_check if op.kind == "theorem-check"
              else experiments.run_simulate)
    return 0 if runner(cfg, out_dir=out_dir).all_passed() else 1


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def curves_of(report: dict):
    """The curves of a report that the reference fixes, by name."""
    samples = report["samples"]
    if "witness" in samples:
        return {"t": samples["witness"]["t"],
                "raw_ratio": samples["witness"]["raw_ratio"]}
    return {"t": samples["semigroup_norm"]["t"],
            "semigroup_norm": samples["semigroup_norm"]["value"],
            "resolvent_product_norm": samples["resolvent_product_norm"]["value"]}


def norm_tol_of(report: dict) -> float:
    for line in report["config"]["text"].splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "tolerances.norm_tol":
            return float(value)
    return 1e-10


def gate(op: Operation, code: int, out_dir: str, reference: dict) -> list:
    """Problems with one operation's result; an empty list means it passed."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        with open(os.path.join(out_dir, "report.json"), "r",
                  encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError) as exc:
        return problems + [f"no readable report.json: {exc}"]
    try:
        statuses = {name: v["status"] for name, v in report["verdicts"].items()}
        curves = curves_of(report) if op.curve_key else {}
        tol = norm_tol_of(report)
    except (KeyError, TypeError, AttributeError) as exc:
        return problems + [f"report.json lacks {exc}"]
    if statuses != reference["verdicts"][op.key]:
        problems.append(f"verdicts {statuses}")
    for name, got in curves.items():
        want = reference["curves"][op.curve_key][name]
        if len(got) != len(want) or any(
                abs(g - w) > tol * abs(w) for g, w in zip(got, want)):
            problems.append(f"curve {name} differs from the reference "
                            f"beyond relative {tol}")
    return problems
