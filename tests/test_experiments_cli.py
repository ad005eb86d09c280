import dataclasses
import functools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import hardy_run
from semistab import cli, experiments, linalg, models, spectral
from semistab.cli import main
from semistab.errors import ConfigError, TruncationInadequateError
from semistab.experiments import (FAIL, KEY_TABLE, MAX_DIM, MAX_GRID_POINTS,
                                  PASS, SKIPPED, Spacing, TimeGrid,
                                  config_hash, parse_config, render_config,
                                  run_hardy, run_simulate, run_theorem_check,
                                  run_witness, write_csv)
from semistab.models import (Family, ModelSpec, build_model, check_truncation,
                             model_dim)

JP_TEXT = """\
# small run
model.family = JORDAN_PAIRS
model.max_index = auto
grid.t_min = 1.0
grid.t_max = 40.0
grid.points = 14
grid.spacing = GEOMETRIC
output.directory = {out}
"""

LS_TEXT = """\
model.family = LOG_SPECTRUM
model.order = {order}
grid.t_min = 7.389056098930650
grid.t_max = 200.0
grid.points = 12
checks.top_k = 3
output.directory = {out}
"""


# Order-2 LOG_SPECTRUM on a short window: cheap (dim 161), and several of
# its verdicts FAIL under both config runners.
FAILING_TEXT = """\
model.family = LOG_SPECTRUM
model.order = 2
grid.t_min = 7.389056098930650
grid.t_max = 20.0
grid.points = 10
"""

# Every key set, each to a value other than its default.
ALL_KEYS_TEXT = """\
model.family = LOG_SPECTRUM
model.max_index = 400
model.order = 2
model.mu = 2.5-0.5j
grid.t_min = 0.5
grid.t_max = 30.0
grid.points = 7
grid.spacing = LINEAR
contour.nodes = 32
contour.radius_cap = 0.25
checks.top_k = 3
checks.translation_shift = 2.5
tolerances.norm_tol = 1e-09
tolerances.proj_tol = 1e-06
output.directory = somewhere/else
output.formats = JSON
"""

CONFIGS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

REPORT_KEYS = {"config", "samples", "fits", "projections", "verdicts",
               "timings", "version"}


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _strip_timings(path):
    report = json.loads(_read(path))
    report.pop("timings")
    return json.dumps(report, sort_keys=True)


# ------------------------------------------------------------------ config

def test_config_round_trip():
    for text in (JP_TEXT.format(out="somewhere"), ALL_KEYS_TEXT):
        cfg = parse_config(text)
        again = parse_config(render_config(cfg))
        assert again == cfg
        assert (config_hash(render_config(again))
                == config_hash(render_config(cfg)))
    assert render_config(cfg) == ALL_KEYS_TEXT
    for name, _, default, path in KEY_TABLE:
        assert attrgetter(path)(cfg) != default, name


def test_shipped_config_hashes_are_pinned():
    # The canonical text is what report.json hashes: reordering or
    # reformatting KEY_TABLE would silently change every stored hash.
    pinned = {
        "diag_jordan.cfg":
            "2c3c3128e3b1dac15f28ff2ab05253c429455727e57c859a461c7dff3b1eb20a",
        "jordan_pairs.cfg":
            "9ccb5602ec001314ae6769ae79be0aee4cb9135f5cf2ee44a1f2c1b33fdded34",
        "log_spectrum_n1.cfg":
            "1628fdb5791ea390f3324cce246545cfbb1cb77224ac2794db73195f0ab01e2a",
        "log_spectrum_n2.cfg":
            "ac39e561b0c8ae6f3a75be8380b9c2554ef1cb7d23032551e2f3fc6da627fb72",
    }
    assert sorted(os.listdir(CONFIGS_DIR)) == sorted(pinned)
    for name, digest in pinned.items():
        with open(os.path.join(CONFIGS_DIR, name), "r", encoding="utf-8") as handle:
            cfg = parse_config(handle.read())
            assert config_hash(render_config(cfg)) == digest, name


def test_import_and_parse_load_neither_openssl_nor_decimal():
    # config_hash imports hashlib (OpenSSL, 3.6 MB of RSS) and truncation
    # imports decimal (0.4 MB) where they are used, not at import.
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    code = ("import sys, semistab\n"
            "semistab.parse_config(sys.argv[1])\n"
            "print(sorted({'_hashlib', 'decimal'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, JP_TEXT.format(out="x")],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_tolerance_defaults_are_the_kernel_constants():
    # The tolerance defaults are the constants the kernels default to, not
    # restated numbers; the canonical text and its hash do not move.
    defaults = {name: default for name, _, default, _ in KEY_TABLE}
    assert defaults["tolerances.norm_tol"] is linalg.LANCZOS_TOL_DEFAULT
    assert defaults["tolerances.proj_tol"] is spectral.QUADRATURE_DRIFT_TOL
    cfg = parse_config(JP_TEXT.format(out="somewhere"))
    assert ("tolerances.norm_tol = 1e-10\ntolerances.proj_tol = 1e-08\n"
            in render_config(cfg))
    assert config_hash(render_config(cfg)) == (
        "640d66ee54248f5e9a814f86617321d2ac09ab2a6152033765a4077db319a064")


def test_readme_config_grammar_lists_every_key():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, "r", encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("## Config grammar", 1)[1].split("\n## ", 1)[0]
    listed = [key for row in section.splitlines() if row.startswith("| `")
              for key in re.findall(r"`([a-z_]+\.[a-z_]+)`", row.split("|")[1])]
    assert listed == [name for name, *_ in KEY_TABLE]


def test_readme_library_example_runs(capsys):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, "r", encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    printed = [float(word) for word in capsys.readouterr().out.split()]
    assert len(printed) == 4
    assert all(math.isfinite(v) and v > 0 for v in printed)


def test_config_defaults():
    cfg = parse_config(JP_TEXT.format(out="x"))
    assert cfg.model.family is Family.JORDAN_PAIRS
    assert cfg.model.max_index == 2000  # 50 * t_max
    assert cfg.model.mu_default == 1.0 + 0.0j
    assert cfg.contour_nodes == 64
    assert cfg.top_k == 5
    assert cfg.norm_tol == 1e-10
    assert cfg.output_formats == ("CSV", "JSON")


def test_config_errors_name_lines():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("model.family = JORDAN_PAIRS\nmystery.key = 1\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("model.family = JORDAN_PAIRS\ngrid.t_min = 1\n"
                      "grid.t_min = 2\n")
    with pytest.raises(ConfigError, match="line 2: expected 'key = value', "
                                          "got 'grid.points 12'"):
        parse_config("model.family = JORDAN_PAIRS\ngrid.points 12\n")
    with pytest.raises(ConfigError, match="line 2: empty value for "
                                          "'grid.points'"):
        parse_config("model.family = JORDAN_PAIRS\ngrid.points =\n")
    with pytest.raises(ConfigError, match="missing required"):
        parse_config("model.family = JORDAN_PAIRS\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(JP_TEXT.format(out="x") + "contour.nodes = many\n")
    with pytest.raises(ConfigError):
        parse_config(JP_TEXT.format(out="x") + "model.mu = not-a-number\n")


@pytest.mark.parametrize("line", [
    "grid.t_min = nan", "grid.t_max = inf", "model.mu = nan",
    "model.mu = inf+0j", "model.order = 0", "checks.top_k = -1",
    "checks.top_k = 0", "grid.points = 0", "tolerances.norm_tol = nan",
    "tolerances.norm_tol = inf", "tolerances.norm_tol = 1",
    "tolerances.norm_tol = 0", "tolerances.proj_tol = nan",
    "tolerances.proj_tol = inf", "tolerances.proj_tol = 0",
    "contour.radius_cap = nan", "contour.radius_cap = inf",
    "contour.radius_cap = -0.5", "contour.radius_cap = 1e-7",
    "checks.translation_shift = 0",
    "checks.translation_shift = nan", "checks.translation_shift = inf",
    "contour.nodes = -64", "contour.nodes = 17", "contour.nodes = 8",
    "output.formats = XML",
])
def test_config_rejects_out_of_range_value(tmp_path, capsys, line):
    key = line.split(" = ")[0]
    base = [row for row in LS_TEXT.format(order=1, out="x").splitlines()
            if not row.startswith(key + " ")]
    text = "\n".join(base + [line]) + "\n"
    where = f"line {len(base) + 1}: {key}: bad value"
    with pytest.raises(ConfigError, match=re.escape(where)):
        parse_config(text)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    assert main(["theorem-check", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_theorem_check_exits_2_on_a_shift_whose_ratio_overflows(tmp_path,
                                                               capsys):
    # theorem-check warned of an overflow in exp, reported FAIL and wrote
    # "end_ratio": Infinity, which is not JSON; now it writes nothing.
    cfg_path = tmp_path / "shift.cfg"
    cfg_path.write_text("model.family = JORDAN_PAIRS\ngrid.t_min = 1.0\n"
                        "grid.t_max = 50.0\ngrid.points = 12\n"
                        "checks.translation_shift = 1e300\n")
    out = tmp_path / "o"
    assert main(["theorem-check", "--config", str(cfg_path),
                 "--out", str(out)]) == 2
    assert "shift t = 1e+300, s = 1.0" in capsys.readouterr().err
    assert not out.exists()


def test_write_json_rejects_non_finite_floats(tmp_path):
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            experiments.write_json(str(tmp_path / "r.json"), {"x": bad})
    assert not (tmp_path / "r.json").exists()


def test_config_rejects_inadequate_truncation():
    text = JP_TEXT.format(out="x").replace("model.max_index = auto",
                                           "model.max_index = 100")
    with pytest.raises(TruncationInadequateError) as info:
        parse_config(text)
    assert info.value.required == 2000
    assert "2000" in str(info.value)


def test_config_max_dim_cap():
    with pytest.raises(TruncationInadequateError) as info:
        parse_config(JP_TEXT.format(out="x"), max_dim=100)
    assert "minimal adequate max_index 2000" in str(info.value)


def test_config_rejects_oversized_grid(tmp_path, capsys):
    text = JP_TEXT.format(out=tmp_path / "o").replace(
        "grid.points = 14", "grid.points = 1000000000000000")
    with pytest.raises(ConfigError, match="line 6: grid.points"):
        parse_config(text)
    at_cap = JP_TEXT.format(out="x").replace(
        "grid.points = 14", f"grid.points = {MAX_GRID_POINTS}")
    assert parse_config(at_cap).grid.points == MAX_GRID_POINTS
    cfg_path = tmp_path / "huge.cfg"
    cfg_path.write_text(text)
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert "exceeds the cap" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    ("grid.points = 14", "grid.points = 1", "grid needs >= 2 points"),
    ("grid.t_min = 1.0", "grid.t_min = 0", "geometric grids need t_min > 0"),
], ids=["one_point", "geometric_from_zero"])
def test_config_rejects_bad_grid(old, new, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(JP_TEXT.format(out="x").replace(old, new))


def test_config_auto_resolves_to_smallest_buildable_size(tmp_path, capsys):
    # The time rule alone gives max_index 2 here, whose dim 1 cannot carry
    # the order-1 weighted norm; auto takes the smallest size that can.
    text = ("model.family = LOG_SPECTRUM\ngrid.points = 4\n"
            "grid.t_min = 0.01\ngrid.t_max = 0.1\n")
    assert parse_config(text).model.max_index == 3
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(text)
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 0
    assert SKIPPED in capsys.readouterr().out


@pytest.mark.parametrize("extra, required", [
    ("grid.t_min = 0.1\ngrid.t_max = 0.5\n"
     "model.order = 5\nmodel.max_index = 6\n", 7),
], ids=["order_5_max_index_6"])
def test_config_rejects_truncation_below_weight_order(tmp_path, capsys,
                                                      extra, required):
    text = "model.family = LOG_SPECTRUM\ngrid.points = 4\n" + extra
    with pytest.raises(TruncationInadequateError) as info:
        parse_config(text)
    assert info.value.required == required
    assert f"need max_index >= {required}" in str(info.value)
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(text)
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 2
    assert f"need max_index >= {required}" in capsys.readouterr().err


@settings(derandomize=True, max_examples=60, deadline=None)
@given(family=st.sampled_from(list(Family)), order=st.integers(1, 6),
       t_max=st.floats(0.0, 5.0))
@example(family=Family.LOG_SPECTRUM, order=1, t_max=0.0)
@example(family=Family.LOG_SPECTRUM, order=6, t_max=0.125)
def test_minimal_truncation_builds_and_is_what_auto_resolves_to(family, order,
                                                                t_max):
    need = models.truncation(family, t_max, order)
    check_truncation(build_model(ModelSpec(family, need, order=order)), t_max)
    if t_max > 0.0:
        text = (f"model.family = {family.value}\nmodel.order = {order}\n"
                f"grid.t_min = 0.0\ngrid.t_max = {t_max!r}\ngrid.points = 2\n"
                "grid.spacing = LINEAR\n")
        assert parse_config(text).model.max_index == need


@pytest.mark.parametrize("family", list(Family))
def test_parse_accepts_exactly_what_builds(family):
    # parse_config asks models.truncation, with the order, for
    # the minimum; it must draw the line where building the model and gating
    # its truncation for grid.t_max do.
    outcomes = set()
    for order in range(1, 7):
        for max_index in range(2, 11):
            text = (f"model.family = {family.value}\nmodel.order = {order}\n"
                    f"model.max_index = {max_index}\ngrid.t_min = 0.01\n"
                    "grid.t_max = 0.1\ngrid.points = 4\n")
            try:
                parse_config(text)
                parsed = True
            except TruncationInadequateError:
                parsed = False
            try:
                spec = ModelSpec(family, max_index, order=order)
                check_truncation(build_model(spec), 0.1)
                built = True
            except (ValueError, TruncationInadequateError):
                built = False
            assert parsed == built, (order, max_index)
            outcomes.add(parsed)
    assert outcomes == {True, False}


def test_time_grid_values():
    geo = TimeGrid(1.0, 100.0, 3, Spacing.GEOMETRIC).values()
    assert geo == pytest.approx([1.0, 10.0, 100.0])
    lin = TimeGrid(0.0, 10.0, 3, Spacing.LINEAR).values()
    assert lin == pytest.approx([0.0, 5.0, 10.0])
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10.0, 3, Spacing.GEOMETRIC)
    with pytest.raises(ValueError):
        TimeGrid(5.0, 1.0, 3)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 10.0, 1)


def test_time_grid_rejects_an_infinite_t_max():
    # The grid read [1, inf, inf].
    with pytest.raises(ValueError, match="t_max must be finite"):
        TimeGrid(1.0, math.inf, 3)


# ------------------------------------------------------------------ runners

def test_run_simulate_outputs_and_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = parse_config(JP_TEXT.format(out=out_a))
    report = run_simulate(cfg)
    assert report.all_passed()
    assert set(report.verdicts) == {"semigroup_growth",
                                    "resolvent_product_bounded", "ratio_decay"}

    csv_lines = _read(out_a / "samples.csv").decode().strip().splitlines()
    assert csv_lines[0] == "t,semigroup_norm,resolvent_product_norm,ratio"
    assert len(csv_lines) == 1 + cfg.grid.points

    run_simulate(cfg, out_dir=str(out_b))
    assert _read(out_a / "samples.csv") == _read(out_b / "samples.csv")
    assert _strip_timings(out_a / "report.json") == \
        _strip_timings(out_b / "report.json")


def test_run_simulate_diag_jordan_verdicts(tmp_path):
    # Short grid: the linear-growth window (t >= 50) is empty, so that
    # verdict is SKIPPED while boundedness and the ratio law hold.
    text = ("model.family = DIAG_JORDAN\ngrid.t_min = 1.0\n"
            "grid.t_max = 40.0\ngrid.points = 20\n"
            f"output.directory = {tmp_path / 'dj'}\n")
    report = run_simulate(parse_config(text))
    assert report.verdicts["semigroup_growth"].status == SKIPPED
    assert report.verdicts["resolvent_product_bounded"].status == PASS
    assert report.verdicts["ratio_decay"].status == PASS
    assert report.all_passed()


def test_run_simulate_log_spectrum_verdicts(tmp_path):
    text = ("model.family = LOG_SPECTRUM\nmodel.order = 1\n"
            "grid.t_min = 7.389056098930650\ngrid.t_max = 60.0\n"
            "grid.points = 12\n"
            f"output.directory = {tmp_path / 'ls'}\n")
    report = run_simulate(parse_config(text))
    assert report.verdicts["semigroup_growth"].status == PASS
    assert report.verdicts["resolvent_product_bounded"].status == SKIPPED
    assert report.verdicts["ratio_decay"].status == PASS
    assert "ratio_inverse_log" in report.fits


def test_weighted_simulate_never_sorts_the_spectrum(tmp_path, monkeypatch):
    # simulate and theorem-check read the spectral table alone.
    sorted_dims = []
    derive = models.Model._distinct.func

    def counted(model):
        sorted_dims.append(model.dim)
        return derive(model)

    prop = functools.cached_property(counted)
    prop.__set_name__(models.Model, "_distinct")
    monkeypatch.setattr(models.Model, "_distinct", prop)
    cfg = parse_config(LS_TEXT.format(order=2, out=tmp_path))
    run_simulate(cfg)
    assert sorted_dims == []
    run_theorem_check(cfg)
    assert sorted_dims == []


@pytest.mark.parametrize("family", ["JORDAN_PAIRS", "DIAG_JORDAN"])
def test_theorem_check_never_reads_the_spectrum(tmp_path, monkeypatch, family):
    # The lowest eigenvalues, the circles and the supports come from passes
    # over the table in chunks; the sorted spectrum is for tests alone.
    def unread(model):
        raise AssertionError("Model.spectrum was read")

    monkeypatch.setattr(models.Model, "spectrum", property(unread))
    monkeypatch.setattr(models.Model, "multiplicity", property(unread))
    text = JP_TEXT.format(out=tmp_path).replace("JORDAN_PAIRS", family)
    report = run_theorem_check(parse_config(text))
    assert report.verdicts["hypothesis_b_decay"].metrics["checked"] == 5


@pytest.mark.parametrize("scalars", [[1j, 1j + 1e-7],
                                     [1j, 1j + 1e-7, 3j - 0.5]])
def test_theorem_check_skips_clustered_eigenvalues(tmp_path, monkeypatch,
                                                   scalars):
    # 1j and 1j + 1e-7 admit no isolating circle: each is skipped by name,
    # and with no other eigenvalue the verdict is SKIPPED.
    table = (np.array(scalars), np.zeros(0, dtype=complex),
             np.zeros(0, dtype=complex))
    row = models.FAMILIES[Family.DIAG_JORDAN]
    monkeypatch.setitem(models.FAMILIES, Family.DIAG_JORDAN,
                        dataclasses.replace(row, table=lambda _: table))
    text = JP_TEXT.format(out=tmp_path).replace("JORDAN_PAIRS", "DIAG_JORDAN")
    verdict = run_theorem_check(parse_config(text)).verdicts[
        "hypothesis_b_decay"]
    named = [experiments.format_complex(z) for z in scalars[:2]]
    assert verdict.metrics["skipped_eigenvalues"] == named
    if len(scalars) == 2:
        assert verdict.status == SKIPPED
        assert all(name in verdict.detail for name in named)
    else:
        assert (verdict.metrics["checked"], verdict.metrics["skipped"]) == (1, 2)


def test_atomic_write_leaves_no_temporary_file_after_a_failed_write(tmp_path):
    with pytest.raises(TypeError):
        experiments._atomic_write_text(str(tmp_path / "out.txt"), object())
    assert os.listdir(tmp_path) == []


def test_weighted_simulate_peak_memory(tmp_path):
    # At dim 16000 (5 rows) a run holds R_mu, T(t), T(t) R_mu and the
    # kernel's vectors: 7.0 complex vectors at its peak.  Holding the sorted
    # spectrum and multiplicities as well read 8.6.
    with open(os.path.join(CONFIGS_DIR, "log_spectrum_n2.cfg"), "r",
              encoding="utf-8") as handle:
        text = handle.read().replace("grid.t_max = 200.0", "grid.t_max = 2000.0")
    cfg = parse_config(text.replace("runs/log_spectrum_n2", str(tmp_path)))
    dim = model_dim(Family.LOG_SPECTRUM, cfg.model.max_index)
    assert dim == 16000
    tracemalloc.start()
    try:
        run_simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * 16 * dim, peak / (16 * dim)


def test_report_json_schema_and_config_echo(tmp_path):
    cfg = parse_config(JP_TEXT.format(out=tmp_path / "o"))
    report = run_simulate(cfg).to_dict()
    assert set(report) == {"config", "samples", "fits", "projections",
                           "verdicts", "timings", "version"}
    echoed = parse_config(report["config"]["text"])
    assert echoed == cfg
    assert report["config"]["hash"] == config_hash(render_config(cfg))
    for verdict in report["verdicts"].values():
        assert verdict["status"] in (PASS, FAIL, SKIPPED)


def test_run_theorem_check_log_spectrum(tmp_path):
    cfg = parse_config(LS_TEXT.format(order=1, out=tmp_path / "ls"))
    report = run_theorem_check(cfg)
    assert set(report.verdicts) == {"envelope_conditions",
                                    "envelope_translation",
                                    "hypothesis_b_decay", "conclusion_decay"}
    assert report.all_passed()
    assert len(report.projections) == 3
    for entry in report.projections:
        assert entry["idempotency_defect"] <= 1e-10
        assert entry["rank"] == 1
    lines = _read(tmp_path / "ls" / "theorem_curves.csv").decode().splitlines()
    assert lines[0] == ("t,semigroup_norm,resolvent_product_norm,"
                        "envelope,conclusion_curve")
    assert len(lines) == 1 + cfg.grid.points


def test_run_theorem_check_jordan_pairs(tmp_path):
    text = ("model.family = JORDAN_PAIRS\n"
            "grid.t_min = 1.0\ngrid.t_max = 100.0\ngrid.points = 10\n"
            "checks.top_k = 4\n"
            f"output.directory = {tmp_path / 'jp'}\n")
    report = run_theorem_check(parse_config(text))
    assert report.all_passed()


def test_run_hardy_deterministic(tmp_path):
    r1 = run_hardy(500, max_len=64, seed=3, out_dir=str(tmp_path / "h1"))
    r2 = run_hardy(500, max_len=64, seed=3, out_dir=str(tmp_path / "h2"))
    v1 = r1.verdicts["hardy_bound"]
    v2 = r2.verdicts["hardy_bound"]
    assert v1.status == PASS
    assert v1.metrics["worst_ratio"] == v2.metrics["worst_ratio"]
    assert v1.metrics["worst_ratio"] < 1.0
    assert _read(tmp_path / "h1" / "hardy_worst.csv") == \
        _read(tmp_path / "h2" / "hardy_worst.csv")
    with pytest.raises(ConfigError):
        run_hardy(0)


def test_hardy_rejects_a_max_len_above_the_cap_before_drawing(
        tmp_path, capsys, monkeypatch):
    # An oversized --max-len used to die in the draw with an uncaught
    # MemoryError and exit 1, the code of a failed check.
    def no_draw(*args, **kwargs):
        raise AssertionError("run_hardy drew before checking max_len")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ConfigError, match=f"in \\[2, {MAX_DIM}\\]"):
        run_hardy(1, max_len=MAX_DIM + 1, out_dir=str(tmp_path / "h"))
    assert main(["hardy", "--max-len", str(MAX_DIM + 1),
                 "--out", str(tmp_path / "h")]) == 2
    assert f"got {MAX_DIM + 1}" in capsys.readouterr().err
    assert not (tmp_path / "h").exists()


def test_hardy_rejects_a_negative_seed_before_drawing(tmp_path, capsys,
                                                     monkeypatch):
    # numpy's own error named no option: "expected non-negative integer".
    def no_draw(*args, **kwargs):
        raise AssertionError("run_hardy drew before checking seed")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        run_hardy(1, seed=-1, out_dir=str(tmp_path / "h"))
    assert main(["hardy", "--seed", "-1", "--out", str(tmp_path / "h")]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "h").exists()


@pytest.mark.parametrize("seed", [42, 3])
@pytest.mark.parametrize("cases", [31, 32, 33, 65])
def test_run_hardy_matches_the_case_by_case_oracle(tmp_path, cases, seed):
    # At max_len 512, 32 cases a batch: one short batch, one full, one full
    # plus one, two full plus one.
    report = run_hardy(cases, max_len=512, seed=seed,
                       out_dir=str(tmp_path / "h"))
    metrics = report.verdicts["hardy_bound"].metrics
    ratio, case, seq = hardy_run(cases, 512, seed)
    assert metrics["worst_case"] == case
    assert abs(metrics["worst_ratio"] - ratio) <= 16 * np.spacing(ratio)
    write_csv(str(tmp_path / "oracle.csv"), ["n", "re", "im"],
              [(i + 1, z.real, z.imag) for i, z in enumerate(seq)])
    assert _read(tmp_path / "h" / "hardy_worst.csv") == \
        _read(tmp_path / "oracle.csv")


def test_run_hardy_batches_hold_a_bounded_number_of_entries(tmp_path,
                                                            monkeypatch):
    sizes = []

    def recorded(values, lengths):
        sizes.append(len(lengths))
        return experiments.asymptotics.hardy_sums(values, lengths)

    monkeypatch.setattr(experiments, "hardy_sums", recorded)
    # At most 32 * 512 entries a batch, and at least one sequence.
    for cases, max_len, want in ((65, 512, [32, 32, 1]), (300, 64, [256, 44]),
                                 (3, MAX_DIM, [1, 1, 1])):
        sizes.clear()
        run_hardy(cases, max_len=max_len, out_dir=str(tmp_path / "h"))
        assert sizes == want


def test_run_hardy_keeps_the_first_maximum_across_batches(tmp_path,
                                                          monkeypatch):
    def tied(values, lengths):
        ratio = np.full(len(lengths), 0.125)
        return ratio, ratio, ratio

    monkeypatch.setattr(experiments, "hardy_sums", tied)
    # Three batches of at most 32 cases at max_len 512.
    report = run_hardy(65, max_len=512, seed=3, out_dir=str(tmp_path / "h"))
    assert report.verdicts["hardy_bound"].metrics["worst_case"] == 0
    rng = np.random.default_rng(3)
    length = int(rng.integers(2, 513))
    first = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    write_csv(str(tmp_path / "first.csv"), ["n", "re", "im"],
              [(i + 1, z.real, z.imag) for i, z in enumerate(first)])
    assert _read(tmp_path / "h" / "hardy_worst.csv") == \
        _read(tmp_path / "first.csv")


def test_cli_maps_memory_error_to_exit_2(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 16.0 PiB")

    monkeypatch.setattr(cli, "run_hardy", exhausted)
    assert main(["hardy", "--out", str(tmp_path / "h")]) == 2
    assert "out of memory: Unable to allocate" in capsys.readouterr().err


def test_run_witness_outputs(tmp_path):
    report = run_witness([10.0, 20.0], out_dir=str(tmp_path / "w"))
    assert report.all_passed()
    lines = _read(tmp_path / "w" / "witness.csv").decode().splitlines()
    assert lines[0] == "t,raw_ratio,normalized"
    assert len(lines) == 3


_RUNNERS = {
    "simulate": lambda out: run_simulate(parse_config(JP_TEXT.format(out=out))),
    "theorem-check": lambda out: run_theorem_check(
        parse_config(LS_TEXT.format(order=1, out=out))),
    "hardy": lambda out: run_hardy(50, max_len=16, out_dir=str(out)),
    "witness": lambda out: run_witness([10.0, 20.0], out_dir=str(out)),
}


@pytest.mark.parametrize("command", sorted(_RUNNERS))
def test_every_runner_writes_the_documented_report(tmp_path, command):
    report = _RUNNERS[command](tmp_path / "o")
    stored = json.loads(_read(tmp_path / "o" / "report.json"))
    assert set(stored) == REPORT_KEYS
    assert stored["config"]["command"] == command
    timing_keys = {"total_s"}
    if command in ("simulate", "theorem-check"):
        timing_keys.add("sampling_s")
    assert set(stored["timings"]) == timing_keys
    assert stored["timings"] == report.timings
    assert all(value >= 0.0 for value in report.timings.values())
    assert report.timings.get("sampling_s", 0.0) <= report.timings["total_s"]


def test_write_csv_is_atomic_and_round_trips_floats(tmp_path):
    path = tmp_path / "data.csv"
    rows = [(0.1 + 0.2, 1.0 / 3.0)]
    write_csv(str(path), ["a", "b"], rows)
    text = _read(path).decode().splitlines()
    a, b = text[1].split(",")
    assert float(a) == 0.1 + 0.2 and float(b) == 1.0 / 3.0
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert not leftovers


# ------------------------------------------------------------------ CLI

def test_cli_simulate_and_report(tmp_path, capsys):
    cfg_path = tmp_path / "jp.cfg"
    out_dir = tmp_path / "run"
    cfg_path.write_text(JP_TEXT.format(out=out_dir))
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    assert main(["report", str(out_dir / "report.json")]) == 0
    shown = capsys.readouterr().out
    assert "semigroup_growth" in shown and "PASS" in shown


def test_cli_report_exit_codes(tmp_path, capsys):
    missing = main(["report", str(tmp_path / "nope.json")])
    assert missing == 2
    assert "nope.json" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["report", str(bad)]) == 2

    failing = tmp_path / "fail.json"
    failing.write_text(json.dumps({
        "config": {"command": "simulate", "text": "", "hash": ""},
        "verdicts": {"thing": {"status": "FAIL", "detail": "broken",
                               "metrics": {}}},
        "version": "0.1.0",
    }))
    assert main(["report", str(failing)]) == 1
    assert "thing" in capsys.readouterr().out


@pytest.mark.parametrize("content, key", [
    ({"verdicts": []}, "'verdicts'"),
    ({"verdicts": {"x": "PASS"}}, "'x'"),
    ({"verdicts": {}, "fits": {"ratio_power": {
        "family": "POWER", "exponent_or_scale": -1.0, "residual": 0.0}}},
     "'coefficient'"),
], ids=["verdicts-list", "verdict-string", "fit-without-coefficient"])
def test_cli_report_rejects_malformed_files(tmp_path, capsys, content, key):
    # Each was an uncaught AttributeError or KeyError with exit code 1.
    path = tmp_path / "report.json"
    path.write_text(json.dumps(content))
    assert main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and key in err


@pytest.mark.parametrize("t", ["1e300", "1e6"])
def test_cli_witness_caps_the_dimension_it_derives(t, tmp_path, capsys,
                                                  monkeypatch):
    # 1e300 ended in numpy's bare "Maximum allowed size exceeded"; 1e6
    # built a dim-8e6 model.  Both now stop before building anything.
    def unexpected(spec):
        raise AssertionError(f"built {spec}")
    monkeypatch.setattr(experiments, "build_model", unexpected)
    assert main(["witness", "--t", t, "--out", str(tmp_path / "w")]) == 2
    assert MAX_DIM == 200_000 and "200000" in capsys.readouterr().err
    with pytest.raises(TruncationInadequateError, match="200000"):
        run_witness([float(t)], out_dir=str(tmp_path / "w"))
    assert not (tmp_path / "w").exists()


def test_witness_explicit_dim_is_not_capped(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "MAX_DIM", 100)
    with pytest.raises(TruncationInadequateError, match="needs dim 160 > cap 100"):
        run_witness([10.0, 20.0], out_dir=str(tmp_path / "a"))
    report = run_witness([10.0, 20.0], dim=200, out_dir=str(tmp_path / "b"))
    assert "witness.dim = 200" in report.config_text


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "ghost.cfg")]) == 2
    capsys.readouterr()
    assert main(["hardy", "--cases", "0"]) == 2
    capsys.readouterr()
    for bad_t in ("abc", "inf", "nan"):
        assert main(["witness", "--t", bad_t]) == 2
        assert bad_t in capsys.readouterr().err
    # Non-finite times are rejected, and named, before any dimension is
    # computed from them.
    for bad_t in (math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigError, match=f"got t = {bad_t!r}"):
            run_witness([10.0, bad_t], out_dir=str(tmp_path / "w"))
    assert not (tmp_path / "w").exists()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("family", ["JORDAN_PAIRS", "LOG_SPECTRUM"])
def test_t_max_too_large_for_any_truncation_exits_2(family, tmp_path, capsys):
    # per_time * 1e308 overflowed in math.ceil: simulate and witness
    # printed an OverflowError traceback and exited 1, the failed-check code.
    text = JP_TEXT.format(out=tmp_path / "o").replace(
        "JORDAN_PAIRS", family).replace("grid.t_max = 40.0", "grid.t_max = 1e308")
    named = "t_max must be finite and >= 0, got 1e+308"
    with pytest.raises(ConfigError, match=re.escape(named)):
        parse_config(text)
    cfg_path = tmp_path / "huge.cfg"
    cfg_path.write_text(text)
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert named in capsys.readouterr().err
    assert main(["witness", "--t", "1e308", "--out", str(tmp_path / "w")]) == 2
    assert named in capsys.readouterr().err
    # Below it, dims pass 1e300 (3e308 for JORDAN_PAIRS, past the float
    # range): the cap message stays short.
    cfg_path.write_text(text.replace("1e308", "3e306"))
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "> cap 200000" in err and len(err) < 200
    assert not (tmp_path / "o").exists() and not (tmp_path / "w").exists()


def test_cli_names_a_mu_too_large_for_the_resolvent(tmp_path, capsys):
    # The resolvent's corner overflowed to NaN with a RuntimeWarning, and
    # simulate exited 2 on "values must be finite and positive".
    cfg_path = tmp_path / "jp.cfg"
    cfg_path.write_text(JP_TEXT.format(out=tmp_path / "o")
                        + "model.mu = 1e155+1e155j\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert "mu (1e+155+1e+155j) is too large" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_max_dim_guard(tmp_path, capsys):
    cfg_path = tmp_path / "jp.cfg"
    cfg_path.write_text(JP_TEXT.format(out=tmp_path / "o"))
    code = main(["simulate", "--config", str(cfg_path), "--max-dim", "10"])
    assert code == 2
    assert "minimal adequate" in capsys.readouterr().err


def test_cli_rejects_mu_on_the_spectrum(tmp_path, capsys):
    # 1.5j is the lower eigenvalue of the n = 2 block; the model build
    # rejects it before any output is written.
    cfg_path = tmp_path / "jp.cfg"
    cfg_path.write_text(JP_TEXT.format(out=tmp_path / "o") + "model.mu = 0+1.5j\n")
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert "of the spectrum" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_theorem_check_honours_proj_tol(tmp_path, capsys):
    # At 24 nodes node doubling moves these projections by ~6e-8: inside
    # the configured proj_tol, so the decay check must not re-judge it
    # against the 1e-8 default.
    shipped = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "log_spectrum_n1.cfg")
    with open(shipped, "r", encoding="utf-8") as handle:
        text = handle.read()
    cfg_path = tmp_path / "n1_coarse.cfg"
    cfg_path.write_text(text + "contour.nodes = 24\ntolerances.proj_tol = 1e-6\n")
    assert main(["theorem-check", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()


def test_projection_entries_record_the_node_doubling_drift(tmp_path):
    # At 24 nodes the drift is ~6e-8, recorded in report.json beside the
    # contour it belongs to; the default 64 nodes drift far less.
    shipped = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "log_spectrum_n1.cfg")
    with open(shipped, "r", encoding="utf-8") as handle:
        text = handle.read()
    drifts = {}
    for nodes in (24, 64):
        cfg = parse_config(text + f"contour.nodes = {nodes}\n"
                           "tolerances.proj_tol = 1e-6\n")
        run_theorem_check(cfg, str(tmp_path / str(nodes)))
        with open(tmp_path / str(nodes) / "report.json", "r",
                  encoding="utf-8") as handle:
            entries = json.load(handle)["projections"]
        assert all(entry["nodes"] == nodes for entry in entries)
        drifts[nodes] = [entry["drift"] for entry in entries]
    assert 1e-8 < max(drifts[24]) <= 1e-6
    assert max(drifts[64]) < min(drifts[24])


@pytest.mark.parametrize("t", [3.0, 10.0, 10.06, 24.9])
def test_witness_dim_and_the_gate_agree(t, tmp_path):
    # An explicit witness dim d is the LOG_SPECTRUM truncation at
    # max_index d + 1; run_witness must reject exactly the d for which
    # check_truncation rejects that model, with the same requirement.
    need_dim = model_dim(Family.LOG_SPECTRUM,
                         models.truncation(Family.LOG_SPECTRUM, t))
    outcomes = set()
    for d in range(need_dim - 2, need_dim + 3):
        model = build_model(ModelSpec(Family.LOG_SPECTRUM, d + 1, order=1))
        try:
            check_truncation(model, t)
            gate = None
        except TruncationInadequateError as exc:
            gate = exc.required
        try:
            run_witness([t], dim=d, out_dir=str(tmp_path / str(d)))
            witness = None
        except TruncationInadequateError as exc:
            witness = exc.required
        assert witness == gate, d
        outcomes.add(gate is None)
    assert outcomes == {True, False}


def test_witness_rejects_small_dim_before_building(tmp_path, capsys):
    with pytest.raises(TruncationInadequateError) as info:
        run_witness([10.0], dim=1, out_dir=str(tmp_path / "w"))
    assert info.value.required == 81
    assert main(["witness", "--t", "10", "--dim", "1",
                 "--out", str(tmp_path / "w")]) == 2
    assert "need dim >= 80" in capsys.readouterr().err
    # t at or below e has no tent witness; it is named before any sizing.
    for arg, shown in (("0.1", "0.1"), ("-1", "-1.0"), (repr(np.e), "2.718")):
        with pytest.raises(ConfigError, match=f"got t = {re.escape(shown)}"):
            run_witness([10.0, float(arg)], out_dir=str(tmp_path / "w"))
        assert main(["witness", "--t", arg, "--out", str(tmp_path / "w")]) == 2
        assert f"got t = {shown}" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_witness_rejects_a_repeated_t(tmp_path, capsys):
    # A repeated t made the raw ratios tie, and witness_monotone FAIL
    # (exit 1) judged malformed input.
    with pytest.raises(ConfigError, match="t = 10.0 more than once"):
        run_witness([10.0, 20.0, 10.0], out_dir=str(tmp_path / "w"))
    with pytest.raises(ConfigError, match="need at least one t value"):
        run_witness([], out_dir=str(tmp_path / "w"))
    assert main(["witness", "--t", "10,10,20",
                 "--out", str(tmp_path / "w")]) == 2
    assert "t = 10.0 more than once" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_theorem_check_rejects_a_grid_from_zero(tmp_path, capsys,
                                                monkeypatch):
    # A LINEAR grid may start at 0, where the decay fits take log t: the
    # run sampled every norm and then failed naming no config key.
    def unexpected(spec):
        raise AssertionError(f"built {spec}")
    monkeypatch.setattr(experiments, "build_model", unexpected)
    text = JP_TEXT.format(out=tmp_path / "o").replace(
        "grid.t_min = 1.0", "grid.t_min = 0").replace("GEOMETRIC", "LINEAR")
    with pytest.raises(ConfigError, match="grid.t_min > 0, got 0.0"):
        run_theorem_check(parse_config(text))
    with pytest.raises(ConfigError, match="t_min must be >= 0"):
        parse_config(text.replace("grid.t_min = 0", "grid.t_min = -1"))
    with pytest.raises(ConfigError, match="grid of at least 3 points"):
        run_theorem_check(parse_config(text.replace("grid.points = 14",
                                                    "grid.points = 2")))
    cfg_path = tmp_path / "zero.cfg"
    cfg_path.write_text(text)
    assert main(["theorem-check", "--config", str(cfg_path)]) == 2
    assert "grid.t_min" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_hardy_and_witness(tmp_path, capsys):
    assert main(["hardy", "--cases", "200", "--max-len", "32",
                 "--out", str(tmp_path / "h")]) == 0
    capsys.readouterr()
    assert main(["witness", "--t", "10,20", "--out", str(tmp_path / "w")]) == 0
    capsys.readouterr()
    assert (tmp_path / "w" / "witness.csv").exists()


@pytest.mark.parametrize("argv, expected", [
    (["simulate", "--config", "{jp}"], 0),
    (["theorem-check", "--config", "{ls}"], 0),
    (["simulate", "--config", "{bad}"], 1),
    (["theorem-check", "--config", "{bad}"], 1),
    (["hardy", "--cases", "50", "--max-len", "16"], 0),
    (["witness", "--t", "10,20"], 0),
    (["witness", "--t", "10"], 0),
], ids=["simulate", "theorem-check", "simulate-fail", "theorem-check-fail",
        "hardy", "witness", "witness-single"])
def test_cli_exit_code_matches_stored_report(tmp_path, capsys, argv, expected):
    configs = {"jp": JP_TEXT.format(out="unused"),
               "ls": LS_TEXT.format(order=1, out="unused"),
               "bad": FAILING_TEXT}
    for name, text in configs.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    argv = [arg.format(**{name: str(tmp_path / f"{name}.cfg")
                          for name in configs}) for arg in argv]
    out_dir = tmp_path / "run"
    code = main(argv + ["--out", str(out_dir)])
    shown = capsys.readouterr().out
    assert code == expected
    assert main(["report", str(out_dir / "report.json")]) == code
    assert capsys.readouterr().out == shown
