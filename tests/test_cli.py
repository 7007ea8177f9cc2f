import csv
import math
import os
import stat
import subprocess
import sys
from dataclasses import replace

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
    _KEYS,
    emit_csv,
    main,
    parse_config,
    run_command,
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
SMALL_MOMENTS = ["moments", "--k", "2", "--l", "10", "--wa", "1.0", "--v", "1 m/s", "--dist", "det:2"]


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


def test_parser_built_once_per_process(tmp_path):
    from pickroute.cli import _build_parser
    _build_parser.cache_clear()
    argv = ["moments", "--k", "2", "--l", "10", "--wa", "1.0", "--v", "1 m/s",
            "--dist", "det:2", "--heuristic", "return", "--out", str(tmp_path / "m.csv")]
    assert main(argv) == main(argv) == EXIT_OK
    info = _build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


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


@pytest.mark.parametrize("given,missing", [(["--pickers", "5"], "lambda"), (["--lambda", "51"], "pickers")],
                         ids=["pickers", "lambda"])
def test_layout_with_one_queue_key_exits_2(given, missing, capsys):
    # one of the two used to drop E_R to NA without a word
    status = main(["layout", "--total-length", "100", "--k-min", "2", "--k-max", "3",
                   "--wa", "2.5", "--v", "3 km/h", "--dist", "geom:18"] + given)
    assert status == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: missing required key(s): {missing}\n"


@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_negative_seed_exits_2_naming_it(command, capsys):
    status = main([command, "--k", "2", "--l", "20", "--wa", "2.5", "--v", "3 km/h",
                   "--dist", "det:3", "--samples", "10", "--seed", "-1"])
    assert status == EXIT_CONFIG
    assert capsys.readouterr().err == "error: --seed: key 'seed': seed must be an integer >= 0, got -1\n"


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


def test_emit_csv_overwrites_a_longer_file_in_place(tmp_path):
    path = tmp_path / "x.csv"
    path.write_bytes(b"an older and longer file\n" * 100)
    path.chmod(0o640)
    inode = path.stat().st_ino
    emit_csv([[1, 2]], ["a", "b"], str(path))
    want = b"a,b\r\n1,2\r\n"
    assert path.read_bytes() == want
    assert os.path.getsize(path) == len(want)
    assert path.stat().st_ino == inode
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


def test_error_csv_over_a_longer_run_csv(tmp_path):
    out = tmp_path / "m.csv"
    args = ["moments", "--k", "2", "--l", "10", "--wa", "1.0", "--dist", "det:2", "--out", str(out)]
    assert main(args + ["--v", "1 m/s"]) == EXIT_OK
    assert len(read_csv(out)) == 5
    assert main(args) == EXIT_CONFIG  # 'v' is missing
    assert out.read_bytes() == b"error_code,message\r\n2,missing required key(s): v\r\n"


def test_out_symlink_stays_a_link(tmp_path):
    plain = tmp_path / "plain.csv"
    assert main(SMALL_MOMENTS + ["--out", str(plain)]) == EXIT_OK
    target = tmp_path / "target.csv"
    target.write_bytes(b"x" * 10_000)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(SMALL_MOMENTS + ["--out", str(link)]) == EXIT_OK
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == plain.read_bytes()


def test_out_to_devnull_exits_0(capsys):
    assert main(SMALL_MOMENTS + ["--out", os.devnull]) == EXIT_OK
    assert capsys.readouterr() == ("", "")


def test_out_to_dev_stdout_into_a_pipe(tmp_path):
    out = tmp_path / "m.csv"
    assert main(SMALL_MOMENTS + ["--out", str(out)]) == EXIT_OK
    proc = subprocess.run([sys.executable, "-m", "pickroute", *SMALL_MOMENTS, "--out", "/dev/stdout"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.read_bytes()


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
    # scipy.integrate each longer still.  Nor does the import evaluate any
    # weight column, kernel half or PGF table: they are built on first use.
    heavy = ('mpmath', 'scipy.stats', 'scipy.signal', 'scipy.integrate', 'scipy.optimize', 'scipy.sparse')
    caches = "q._columns, p._pgf_lattice, p._pgf_table, p._pgf_integrals, p._occupancy"
    code = ("import sys, pickroute; from pickroute import prelim as p, quadrature as q; print([m for m in sys.modules"
            f" if m in {heavy!r} or m == 'scipy' or m.startswith('scipy.')]);"
            f" print([f.__name__ for f in ({caches}) if f.cache_info().currsize])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]


@pytest.mark.parametrize("heuristic", ["return", "midpoint", "largest-gap", "s-shaped"])
@pytest.mark.parametrize("spec", ["geom:1e160", "geom:1e200"])
def test_moments_beyond_a_double_exits_2(spec, heuristic, capsys):
    # E[M(M-1)] is not a finite double: every heuristic's E[T^2] would be inf
    status = main(["moments", "--k", "5", "--l", "20", "--wa", "2.5", "--v", "3 km/h",
                   "--dist", spec, "--heuristic", heuristic])
    assert status == EXIT_CONFIG
    assert "E[M(M-1)]" in capsys.readouterr().err


@pytest.mark.parametrize("mean", ["128.468", "8366.378111848124", "2.759"])
def test_deterministic_pick_time_is_accepted(mean):
    # the pick-time check squared the mean with ** 2, one ulp above mean * mean
    status = main(["moments", "--k", "3", "--l", "20", "--wa", "2.5", "--v", "1", "--dist", "geom:3",
                   "--pick-mean", mean, "--pick-scv", "0", "--out", os.devnull])
    assert status == EXIT_OK


def test_unknown_dist_flag_exits_2(capsys):
    status = main(["moments", "--k", "1", "--l", "20", "--wa", "1", "--v", "1 m/s",
                   "--dist", "weird:2"])
    assert status == EXIT_CONFIG
    assert "weird" in capsys.readouterr().err


@pytest.mark.parametrize("dist,lam,message", [("det:inf", "51", "det:inf"), ("geom:32", "inf", "finite")],
                         ids=["dist", "lambda"])
def test_non_finite_flag_exits_2(dist, lam, message, capsys):
    # an infinite order size used to escape as OverflowError, an infinite rate as an unstable queue
    status = main(["leadtime", "--k", "5", "--l", "20", "--wa", "2.5", "--v", "3 km/h",
                   "--dist", dist, "--pickers", "5", "--lambda", lam])
    assert status == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag,token,message", [
    ("--v", "-3 km/h", "--v: key 'v': speed must be finite and > 0, got '-3 km/h'"),
    ("--lambda", "-1", "--lambda: key 'lambda': rate must be finite and > 0, got '-1'"),
    ("--pick-mean", "nan", "--pick-mean: key 'pick_mean': duration must be finite and >= 0, got 'nan'"),
], ids=["speed", "rate", "pick-mean"])
def test_negative_or_nan_flag_names_flag_and_token(flag, token, message, capsys):
    # these used to be reported by the library in SI units, without the key
    args = {"--k": "5", "--l": "20", "--wa": "2.5", "--v": "3 km/h", "--dist": "geom:32",
            "--pickers": "5", "--lambda": "51", flag: token}
    status = main(["leadtime"] + [part for item in args.items() for part in item])
    assert status == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"


def test_negative_speed_config_line_names_line_and_token(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text(BASELINE.replace("v = 3 km/h", "v = -3 km/h"))
    assert main(["moments", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("error: line 6: key 'v': speed must be finite and > 0,"
                                       " got '-3 km/h'\n")


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


def test_out_of_memory_exits_2_with_error_csv(tmp_path, monkeypatch, capsys):
    # stands in for a table too large to allocate (return at k = 10^7); no
    # test allocates one
    import pickroute.cli as cli_mod

    def failing(cfg, dist, pick, heuristic):
        raise MemoryError("Unable to allocate 55.2 GiB for an array")

    monkeypatch.setattr(cli_mod, "compute_moments", failing)
    out = tmp_path / "m.csv"
    status = main(["moments", "--k", "5", "--l", "20", "--wa", "2.5", "--v", "3 km/h",
                   "--dist", "geom:18", "--heuristic", "return", "--out", str(out)])
    assert status == EXIT_CONFIG
    assert capsys.readouterr().err == "error: not enough memory: Unable to allocate 55.2 GiB for an array\n"
    assert read_csv(out)[1] == [str(EXIT_CONFIG), "not enough memory: Unable to allocate 55.2 GiB for an array"]


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


def test_validate_zero_se_needs_exact_agreement(tmp_path, monkeypatch):
    # at k = 1, det:2 and no pick time, midpoint and largest gap walk a constant
    # route, so the MC standard error is 0 and z cannot be a ratio
    import pickroute.cli as cli_mod

    args = ["validate", "--k", "1", "--l", "20", "--wa", "2.5", "--v", "1 m/s", "--dist", "det:2",
            "--heuristic", "midpoint", "--heuristic", "largest-gap", "--samples", "20000", "--seed", "3"]
    out = tmp_path / "v.csv"
    assert main(args + ["--out", str(out)]) == EXIT_OK
    rows = read_csv(out)[1:]
    assert [(row[8], row[9]) for row in rows] == [("0.0", "0.0")] * 4

    real = cli_mod.compute_moments

    def broken(cfg, dist, pick, heuristic):
        rep = real(cfg, dist, pick, heuristic)
        return type(rep)(rep.e_t * 1.5, rep.e_t2 * 2, rep.var_t, rep.sd_t,
                         rep.e_tw, rep.e_ttr, rep.terms)

    monkeypatch.setattr(cli_mod, "compute_moments", broken)
    assert main(args + ["--out", str(out)]) == EXIT_VALIDATION
    rows = read_csv(out)[1:]
    assert [(row[8], row[9]) for row in rows] == [("0.0", "inf")] * 4


def test_validate_fails_a_nan_analytic_value(tmp_path, monkeypatch):
    import pickroute.cli as cli_mod

    real = cli_mod.compute_moments

    def nan_mean(cfg, dist, pick, heuristic):
        rep = real(cfg, dist, pick, heuristic)
        return type(rep)(float("nan"), rep.e_t2, rep.var_t, rep.sd_t,
                         rep.e_tw, rep.e_ttr, rep.terms)

    monkeypatch.setattr(cli_mod, "compute_moments", nan_mean)
    out = tmp_path / "v.csv"
    status = main(["validate", "--k", "2", "--l", "20", "--wa", "2.5", "--v", "1 m/s",
                   "--dist", "det:2", "--heuristic", "return", "--samples", "2000",
                   "--out", str(out)])
    assert status == EXIT_VALIDATION
    assert read_csv(out)[1][9] == "NA"  # E_T of return


def test_unwritable_out_exits_2(tmp_path, monkeypatch, capsys):
    import pickroute.cli as cli_mod

    written = []

    def recording_emit_csv(rows, schema, path):
        written.append(path)
        emit_csv(rows, schema, path)

    monkeypatch.setattr(cli_mod, "emit_csv", recording_emit_csv)
    # a file in a missing directory, and a directory
    for out in (str(tmp_path / "missing" / "m.csv"), str(tmp_path)):
        args = ["moments", "--k", "2", "--l", "10", "--wa", "1.0", "--dist", "det:2", "--out", out]
        # the run succeeds, but its CSV cannot be written: no error CSV on the same path
        written.clear()
        assert main(args + ["--v", "1 m/s"]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write output:")
        assert written == [out]
        # the run fails ('v' is missing), and so does its error CSV
        written.clear()
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "error: missing required key(s): v"
        assert len(err) == 2 and err[1].startswith("error: cannot write output:")
        assert written == [out]


@pytest.mark.parametrize("command", ["leadtime", "layout"])
def test_billion_pickers_answer_at_once(command, tmp_path, capsys):
    # the Erlang-C sum stops once its rest cannot change it, so any picker
    # count answers at once
    import time

    args = [command, "--k", "5", "--l", "20", "--wa", "2.5", "--v", "3 km/h", "--dist", "geom:32",
            "--k-min", "2", "--k-max", "3", "--lambda", "51"]
    out = tmp_path / "out.csv"
    start = time.perf_counter()
    status = main(args + ["--pickers", "1000000000", "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert status == EXIT_OK
    e_r = [float(row[-1]) for row in read_csv(out)[1:]]
    assert e_r and all(math.isfinite(x) and x > 0 for x in e_r)
    # a count below one is still exit 2, named
    assert main(args + ["--pickers", "0"]) == EXIT_CONFIG
    assert "picker count must be an integer >= 1, got 0" in capsys.readouterr().err


def test_picker_count_at_bound_answers(tmp_path):
    out = tmp_path / "lt.csv"
    status = main(["leadtime", "--k", "5", "--l", "20", "--wa", "2.5", "--v", "3 km/h", "--dist", "geom:32",
                   "--heuristic", "return", "--pickers", "1000000", "--lambda", "51", "--out", str(out)])
    assert status == EXIT_OK
    row = read_csv(out)[1]
    assert row[-5] == "1000000" and float(row[-1]) == pytest.approx(float(row[6]), rel=1e-12)


@pytest.mark.parametrize("text,message", [
    ("l = 1 2 3", "cannot parse length '1 2 3'"),
    ("l = 20 ft", "unknown unit 'ft'"),
    ("l = abc m", "invalid number 'abc'"),
    ("heuristics = foo", "unknown heuristic 'foo'"),
    ("heuristics = ,", "empty list"),
])
def test_config_value_errors_named(text, message):
    with pytest.raises(ConfigError, match=f"line 1: key '{text.split()[0]}': {message}"):
        parse_config(text)


def test_unknown_command_raises_config_error():
    with pytest.raises(ConfigError, match="unknown command 'route'"):
        run_command("route", RunConfig())


@pytest.mark.parametrize("command,field,message", [
    ("leadtime", {"pickers": 0}, "picker count must be an integer >= 1, got 0"),
    ("simulate", {"seed": -1}, "seed must be an integer >= 0, got -1"),
    ("moments", {"v": 0.0}, "walking speed must be finite and positive, got 0.0"),
], ids=["pickers", "seed", "v"])
def test_hand_built_config_meets_the_library_checks(command, field, message):
    # a RunConfig that no parser checked is refused by the library, without a key
    cfg = replace(parse_config(BASELINE), **{"pickers": 5, "lam": 51.0, "samples": 10, **field})
    with pytest.raises(ConfigError, match=f"^{message}$"):
        run_command(command, cfg)


@pytest.mark.parametrize("command", ["leadtime", "layout"])
@pytest.mark.parametrize("key,line,message", [
    ("pickers", 8, "key 'pickers': picker count must be an integer >= 1, got 0"),
    ("lambda", 9, "key 'lambda': rate must be finite and > 0, got '0'"),
], ids=["pickers", "lambda"])
def test_queue_value_errors_name_the_key(command, key, line, message, tmp_path, capsys):
    # the queue's own check used to reach the user without the key's name
    queue = {"pickers": "5", "lambda": "51", key: "0"}
    sweep = ["--k-min", "2", "--k-max", "3"]
    flags = [part for name, value in queue.items() for part in ("--" + name, value)]
    shape = ["--k", "5", "--l", "20", "--wa", "2.5", "--v", "3 km/h", "--dist", "geom:32"]
    assert main([command, *shape, *sweep, *flags]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: --{key}: {message}\n"
    path = tmp_path / "c.cfg"
    path.write_text(BASELINE + "".join(f"{name} = {value}\n" for name, value in queue.items()))
    assert main([command, str(path), *sweep]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: line {line}: {message}\n"


def _given(form: str, values: dict, tmp_path) -> list:
    """The BASELINE warehouse plus ``values`` (config key -> token), all as
    flags or all as config lines."""
    if form == "flag":
        flags = {"k": "5", "l": "20", "wa": "2.5", "v": "3 km/h", "dist": "geom:32", **values}
        return [part for key, token in flags.items() for part in ("--" + key.replace("_", "-"), token)]
    path = tmp_path / "c.cfg"
    path.write_text(BASELINE + "".join(f"{key} = {token}\n" for key, token in values.items()))
    return [str(path)]


@pytest.mark.parametrize("form,where", [("flag", "--lambda"), ("line", "line 9")])
def test_rate_that_underflows_per_second_names_its_key(form, where, tmp_path, capsys):
    # 1e-321 orders/hour is > 0, but 0.0 orders/second: the queue used to
    # refuse it without the key
    given = _given(form, {"pickers": "5", "lambda": "1e-321"}, tmp_path)
    assert main(["leadtime", *given]) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"error: {where}: key 'lambda': rate underflows to 0 orders"
                                       f" per second, got '1e-321'\n")


@pytest.mark.parametrize("form", ["flag", "line"])
@pytest.mark.parametrize("pick,got", [({"pick_mean": "1e160"}, "1e+160 and 0.0"),
                                      ({"pick_mean": "1e200", "pick_scv": "1e200"}, "1e+200 and 1e+200")],
                         ids=["mean", "mean-and-scv"])
def test_pick_second_moment_beyond_a_double_names_both_keys(pick, got, form, tmp_path, capsys):
    # pick_mean^2 (1 + pick_scv) is inf; the library used to refuse it without the keys
    assert main(["moments", *_given(form, pick, tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("error: keys 'pick_mean' and 'pick_scv': the pick-time second moment"
                                       f" pick_mean^2 (1 + pick_scv) must be finite, got {got}\n")


def test_overflowing_report_exits_2(tmp_path, capsys):
    # every row used to print E_T2 = inf and Var_T = SD_T = NA, with exit status 0
    given = _given("flag", {"wa": "1e200"}, tmp_path)
    assert main(["moments", *given, "--heuristic", "midpoint"]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("error: numerical failure: midpoint: E[T^2] and Var(T) must be finite,"
                                       " got inf and nan\n")


def test_one_aisle_report_at_huge_wa_is_the_wa_0_report(tmp_path):
    # a one-aisle route crosses no aisle; wa = 1e200 was refused with a NaN E[T^2]
    reports = {}
    for wa in ("1e200", "0"):
        out = tmp_path / f"wa{wa}.csv"
        assert main(["moments", "--k", "1", "--l", "20", "--wa", wa, "--v", "1", "--dist", "geom:3",
                     "--out", str(out)]) == EXIT_OK
        reports[wa] = [row[:3] + row[4:] for row in read_csv(out)]   # all but the wa column
    assert reports["1e200"] == reports["0"]
    assert len(reports["0"]) == 5


def test_layout_failed_cells_are_na_and_print_nothing(tmp_path, capfd, caplog):
    # each NA cell used to log its whole traceback, which reached stderr (88
    # lines here) when no logging was configured; under pytest it reaches caplog
    out = tmp_path / "layout.csv"
    cfg = os.path.join(os.path.dirname(__file__), "golden", "baseline.cfg")
    assert main(["layout", cfg, "--wa", "1e200", "--k-min", "2", "--k-max", "3", "--out", str(out)]) == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 1 + 8
    assert all(row[3:] == ["NA", "NA"] for row in rows[1:])
    assert capfd.readouterr().err == ""
    assert caplog.records == []


@pytest.mark.parametrize("command", ["moments", "simulate", "validate"])
def test_commands_without_a_queue_ignore_its_keys(command, tmp_path):
    # the queue they do not build may be unstable (rho >> 1); a value outside
    # its key's domain is refused by every command (the every-key test below)
    out = tmp_path / "out.csv"
    args = [command, "--k", "2", "--l", "20", "--wa", "2.5", "--v", "3 km/h", "--dist", "det:2",
            "--samples", "2000", "--seed", "1", "--pickers", "1", "--lambda", "1e9", "--out", str(out)]
    assert main(args) == EXIT_OK
    assert len(read_csv(out)) > 1


# a token outside each key's domain.  'out' is exempt: no token is refused at
# parse time, and a path that cannot be written fails only when the CSV is.
REFUSED = {"k": "0", "l": "0", "wa": "-1", "v": "0 km/h", "dist": "geom:0.5", "pick_mean": "-1",
           "pick_scv": "-1", "heuristics": "foo", "pickers": "0", "lambda": "0", "samples": "1",
           "seed": "-1", "total_length": "0", "k_min": "0", "k_max": "0"}


@pytest.mark.parametrize("form", ["flag", "line"])
@pytest.mark.parametrize("key", [key for key in _KEYS if key != "out"])
def test_every_key_refuses_a_value_outside_its_domain_by_name(key, form, tmp_path, capsys):
    token = REFUSED[key]
    if form == "flag":
        where = "--heuristic" if key == "heuristics" else "--" + key.replace("_", "-")
        given = [where, token]
    else:
        where = "line 1"
        path = tmp_path / "c.cfg"
        path.write_text(f"{key} = {token}\n")
        given = [str(path)]
    prefix = f"error: {where}: key {key!r}: "
    for command in ("moments", "simulate", "leadtime", "layout", "validate"):
        assert main([command, *given]) == EXIT_CONFIG, command
        err = capsys.readouterr().err
        assert err.startswith(prefix) and token in err[len(prefix):], (command, err)


def test_layout_k_min_above_k_max_exits_2(capsys):
    status = main(["layout", "--total-length", "100", "--k-min", "4", "--k-max", "3",
                   "--wa", "2.5", "--v", "3 km/h", "--dist", "geom:18"])
    assert status == EXIT_CONFIG
    assert capsys.readouterr().err == "error: keys 'k_min' and 'k_max': k_min must be <= k_max, got 4 > 3\n"


def test_unreadable_config_file_exits_2(tmp_path, capsys):
    assert main(["moments", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: cannot read config file:")


def test_bare_speed_flag_is_meters_per_second(tmp_path):
    out = tmp_path / "m.csv"
    status = main(["moments", "--k", "2", "--l", "10", "--wa", "1.0", "--v", "0.8",
                   "--dist", "det:2", "--heuristic", "return", "--out", str(out)])
    assert status == EXIT_OK
    assert read_csv(out)[1][4] == "0.8"


def test_layout_total_length_defaults_to_k_times_l(tmp_path):
    out = tmp_path / "layout.csv"
    status = main(["layout", "--k", "4", "--l", "25", "--k-min", "2", "--k-max", "5",
                   "--wa", "2.5", "--v", "3 km/h", "--dist", "geom:18", "--heuristic", "return",
                   "--out", str(out)])
    assert status == EXIT_OK
    assert [row[:2] for row in read_csv(out)[1:]] == [["2", "50.0"], ["3", repr(100 / 3)],
                                                      ["4", "25.0"], ["5", "20.0"]]


def test_allow_unstable_is_a_leadtime_flag_only(capsys):
    with pytest.raises(ConfigError, match="unknown key 'allow_unstable'"):
        parse_config("allow_unstable = 1")
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--k", "1", "--l", "20", "--wa", "1", "--v", "1 m/s",
              "--dist", "det:1", "--allow-unstable"])
    assert exc.value.code == 2
    assert "--allow-unstable" in capsys.readouterr().err
