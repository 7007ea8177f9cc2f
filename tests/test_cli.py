import csv
import subprocess
import sys

import pytest

from pickroute.cli import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_UNSTABLE,
    EXIT_VALIDATION,
    LAYOUT_SCHEMA,
    LEADTIME_SCHEMA,
    MOMENTS_SCHEMA,
    RunConfig,
    emit_csv,
    main,
    parse_config,
)
from pickroute.quadrature import IntegrationError

BASELINE = """
# section 6 style baseline
k = 5
l = 20 m
wa = 2.5 m
v = 3 km/h
dist = geom:32
"""


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def render_config(cfg: RunConfig) -> str:
    """Config text that parses back to an equal RunConfig."""
    lines = []
    if cfg.k is not None:
        lines.append(f"k = {cfg.k}")
    if cfg.l is not None:
        lines.append(f"l = {cfg.l!r} m")
    if cfg.wa is not None:
        lines.append(f"wa = {cfg.wa!r} m")
    if cfg.v is not None:
        lines.append(f"v = {cfg.v!r} m/s")
    if cfg.dist is not None:
        lines.append(f"dist = {cfg.dist}")
    lines.append(f"pick_mean = {cfg.pick_mean!r}")
    lines.append(f"pick_scv = {cfg.pick_scv!r}")
    lines.append("heuristics = " + ", ".join(cfg.heuristics))
    if cfg.pickers is not None:
        lines.append(f"pickers = {cfg.pickers}")
    if cfg.lam is not None:
        lines.append(f"lambda = {cfg.lam!r}")
    lines.append(f"samples = {cfg.samples}")
    lines.append(f"seed = {cfg.seed}")
    if cfg.out is not None:
        lines.append(f"out = {cfg.out}")
    if cfg.total_length is not None:
        lines.append(f"total_length = {cfg.total_length!r} m")
    if cfg.k_min is not None:
        lines.append(f"k_min = {cfg.k_min}")
    if cfg.k_max is not None:
        lines.append(f"k_max = {cfg.k_max}")
    return "\n".join(lines) + "\n"


def test_parse_config_baseline():
    cfg = parse_config(BASELINE)
    assert cfg.k == 5
    assert cfg.l == pytest.approx(20.0)
    assert cfg.wa == pytest.approx(2.5)
    assert cfg.v == pytest.approx(5 / 6)
    assert cfg.dist == "geom:32"
    assert cfg.pick_mean == 0.0


def test_parse_config_errors_name_line_and_key():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("k = not_a_number")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("speed = 3")
    with pytest.raises(ConfigError, match="'v'"):
        parse_config("v = 3 parsec/h")
    with pytest.raises(ConfigError, match="dist"):
        parse_config("dist = geom:0.5")
    with pytest.raises(ConfigError, match="expected"):
        parse_config("just some words")


def test_missing_required_key_is_named(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("k = 5\nl = 20 m\nwa = 2.5 m\ndist = geom:32\n")
    status = main(["moments", str(path)])
    assert status == EXIT_CONFIG
    assert "v" in capsys.readouterr().err


def test_config_round_trip():
    cfg = parse_config(BASELINE)
    assert parse_config(render_config(cfg)) == cfg
    cfg2 = RunConfig(k=3, l=10.0, wa=1.5, v=1.25, dist="det:4", pick_mean=2.0,
                     pick_scv=0.5, heuristics=("return", "s-shaped"), pickers=4,
                     lam=30.0, samples=500, seed=9, out="x.csv",
                     total_length=120.0, k_min=2, k_max=12)
    assert parse_config(render_config(cfg2)) == cfg2


def test_moments_command_schema_and_order(tmp_path):
    out = tmp_path / "m.csv"
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(BASELINE)
    status = main(["moments", str(cfg_path), "--out", str(out)])
    assert status == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == MOMENTS_SCHEMA
    assert [r[0] for r in rows[1:]] == ["return", "midpoint", "largest-gap", "s-shaped"]
    et = {r[0]: float(r[6]) for r in rows[1:]}
    assert et["largest-gap"] < et["midpoint"]


def test_flags_override_config(tmp_path):
    out = tmp_path / "m.csv"
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(BASELINE)
    status = main(["moments", str(cfg_path), "--k", "2", "--heuristic", "return",
                   "--out", str(out)])
    assert status == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 2 and rows[1][0] == "return"
    assert rows[1][1] == "2"


def test_moments_without_config_file(tmp_path):
    out = tmp_path / "m.csv"
    status = main(["moments", "--k", "2", "--l", "10", "--wa", "1.0", "--v", "1 m/s",
                   "--dist", "det:2", "--out", str(out)])
    assert status == EXIT_OK
    assert len(read_csv(out)) == 5


def test_leadtime_command(tmp_path):
    out = tmp_path / "lt.csv"
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(BASELINE + "pickers = 5\nlambda = 51\npick_mean = 5\npick_scv = 1\n")
    status = main(["leadtime", str(cfg_path), "--out", str(out)])
    assert status == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == LEADTIME_SCHEMA
    for row in rows[1:]:
        assert float(row[-3]) < 1.0  # rho
        assert float(row[-1]) >= float(row[6])  # E_R >= E_T


def test_leadtime_unstable_exit_code(tmp_path):
    out = tmp_path / "lt.csv"
    args = ["leadtime", "--k", "5", "--l", "20", "--wa", "2.5", "--v", "3 km/h",
            "--dist", "geom:32", "--pick-mean", "5", "--pickers", "1",
            "--lambda", "51", "--out", str(out)]
    assert main(args) == EXIT_UNSTABLE
    rows = read_csv(out)
    assert all(row[-1] == "NA" for row in rows[1:])
    assert main(args + ["--allow-unstable"]) == EXIT_OK


def test_layout_command(tmp_path):
    out = tmp_path / "layout.csv"
    status = main(["layout", "--total-length", "100", "--k-min", "2", "--k-max", "4",
                   "--wa", "2.5", "--v", "3 km/h", "--dist", "geom:18",
                   "--out", str(out)])
    assert status == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == LAYOUT_SCHEMA
    assert len(rows) == 1 + 3 * 4
    assert rows[1][:3] == ["2", "50.0", "return"]
    assert all(row[4] == "NA" for row in rows[1:])  # no scenario given


def test_validate_command_passes_and_is_deterministic(tmp_path):
    out1 = tmp_path / "v1.csv"
    out2 = tmp_path / "v2.csv"
    base = ["validate", "--k", "3", "--l", "20", "--wa", "2.5", "--v", "1 m/s",
            "--dist", "det:3", "--samples", "20000", "--seed", "31"]
    assert main(base + ["--out", str(out1)]) == EXIT_OK
    assert main(base + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_csv(out1)
    assert len(rows) == 1 + 8  # four heuristics x two quantities
    assert all(abs(float(row[-1])) <= 4.0 for row in rows[1:])


def test_validate_sshaped_at_k256(tmp_path):
    # wide warehouse: the occupancy recursion against the chunked MC engine
    out = tmp_path / "v.csv"
    status = main(["validate", "--k", "256", "--l", "20", "--wa", "2.5", "--v", "3 km/h",
                   "--dist", "geom:40", "--pick-mean", "5", "--pick-scv", "1",
                   "--heuristic", "s-shaped", "--samples", "200000", "--out", str(out)])
    assert status == EXIT_OK
    rows = read_csv(out)
    assert [row[5] for row in rows[1:]] == ["E_T", "E_T2"]
    assert all(abs(float(row[-1])) <= 4.0 for row in rows[1:])


def test_validate_detects_wrong_analytics(tmp_path, monkeypatch):
    # corrupt the analytic path: validation must exit nonzero
    import pickroute.cli as cli_mod

    real = cli_mod.compute_moments

    def broken(cfg, dist, pick, heuristic):
        rep = real(cfg, dist, pick, heuristic)
        return type(rep)(rep.e_t * 1.05, rep.e_t2, rep.var_t, rep.sd_t,
                         rep.e_tw, rep.e_ttr, rep.terms)

    monkeypatch.setattr(cli_mod, "compute_moments", broken)
    out = tmp_path / "v.csv"
    status = main(["validate", "--k", "2", "--l", "20", "--wa", "2.5", "--v", "1 m/s",
                   "--dist", "det:2", "--samples", "20000", "--seed", "3",
                   "--out", str(out)])
    assert status == EXIT_VALIDATION


def test_emit_csv_formats(tmp_path):
    path = tmp_path / "x.csv"
    emit_csv([[1, 2.5, None, float("nan"), "text"]], ["a", "b", "c", "d", "e"], str(path))
    rows = read_csv(path)
    assert rows == [["a", "b", "c", "d", "e"], ["1", "2.5", "NA", "NA", "text"]]


def test_cli_entry_point_subprocess(tmp_path):
    out = tmp_path / "m.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "pickroute", "moments", "--k", "1", "--l", "20",
         "--wa", "1", "--v", "1 m/s", "--dist", "det:1", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(out)
    assert float(rows[1][6]) == pytest.approx(20.0)


def test_import_leaves_heavy_modules_unloaded():
    # mpmath and scipy left the package: scipy.special alone took longer to
    # import than all of pickroute, and scipy.stats, scipy.signal and
    # scipy.integrate each longer still
    heavy = ('mpmath', 'scipy.stats', 'scipy.signal', 'scipy.integrate', 'scipy.optimize', 'scipy.sparse')
    code = ("import sys, pickroute; print([m for m in sys.modules"
            f" if m in {heavy!r} or m == 'scipy' or m.startswith('scipy.')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_unknown_dist_flag_exits_2(capsys):
    status = main(["moments", "--k", "1", "--l", "20", "--wa", "1", "--v", "1 m/s",
                   "--dist", "weird:2"])
    assert status == EXIT_CONFIG
    assert "weird" in capsys.readouterr().err


@pytest.mark.parametrize("error", [ArithmeticError("s-shaped: negative variance -3.2 beyond tolerance"),
                                   IntegrationError("integration failed: roundoff", 1.0, 0.5)],
                         ids=["arithmetic", "integration"])
def test_numerical_failure_exits_2_with_error_csv(tmp_path, monkeypatch, capsys, error):
    # stands in for a real failure (s-shaped at k = 256, geom:40), which takes seconds
    import pickroute.cli as cli_mod

    def failing(cfg, dist, pick, heuristic):
        raise error

    monkeypatch.setattr(cli_mod, "compute_moments", failing)
    out = tmp_path / "m.csv"
    status = main(["moments", "--k", "5", "--l", "20", "--wa", "2.5", "--v", "3 km/h",
                   "--dist", "geom:40", "--heuristic", "s-shaped", "--out", str(out)])
    assert status == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure:") and str(error) in err
    rows = read_csv(out)
    assert rows[0] == ["error_code", "message"]
    assert rows[1][0] == str(EXIT_CONFIG) and str(error) in rows[1][1]


def test_error_csv_goes_to_config_out(tmp_path, capsys):
    # the CSV path comes from the config file, not a flag; 'v' is missing
    out = tmp_path / "err.csv"
    path = tmp_path / "c.cfg"
    path.write_text(f"k = 5\nl = 20 m\nwa = 2.5 m\ndist = geom:32\nout = {out}\n")
    assert main(["moments", str(path)]) == EXIT_CONFIG
    assert "v" in capsys.readouterr().err
    rows = read_csv(out)
    assert rows[0] == ["error_code", "message"]
    assert rows[1][0] == str(EXIT_CONFIG) and "missing required key(s): v" in rows[1][1]


def test_bad_flag_value_named(capsys):
    status = main(["moments", "--k", "2.5", "--l", "20", "--wa", "1", "--v", "1 m/s",
                   "--dist", "det:2"])
    assert status == EXIT_CONFIG
    assert "--k" in capsys.readouterr().err
