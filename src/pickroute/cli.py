"""Command-line surface: config parsing, subcommands and CSV emission.

Subcommands: ``moments``, ``simulate``, ``leadtime``, ``layout``, ``validate``.
Configuration is a line-oriented ``key = value`` file (``#`` comments);
command-line flags override config keys and are parsed by the same table.
Exit codes: 0 success, 2 parse, validation, numerical or out-of-memory
error, 3 unstable queue without ``--allow-unstable``, 4 Monte Carlo
validation failure (some |z| > 4).
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import os
import stat
import sys
from dataclasses import dataclass, replace
from functools import cache

from .heuristics import HEURISTICS, PickTimeModel, WarehouseConfig, compute_moments
from .layout import layout_sweep
from .orderdist import as_count, parse_dist_spec
from .queueing import QueueScenario, lead_time_estimate
from .simulate import run_replications_all

__all__ = ["RunConfig", "ConfigError", "parse_config", "run_command", "emit_csv", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_VALIDATION = 4

MOMENTS_SCHEMA = ["heuristic", "k", "l", "wa", "v", "dist",
                  "E_T", "E_T2", "Var_T", "SD_T", "E_TW", "E_TTr"]
LEADTIME_SCHEMA = MOMENTS_SCHEMA + ["c", "lambda", "rho", "Q", "E_R"]
SIMULATE_SCHEMA = ["heuristic", "k", "l", "wa", "v", "dist", "n", "seed",
                   "mean_T", "SE_T", "mean_T2", "SE_T2"]
LAYOUT_SCHEMA = ["k", "l", "heuristic", "E_T", "E_R"]
VALIDATE_SCHEMA = ["heuristic", "k", "dist", "n", "seed", "quantity",
                   "analytic", "mc", "se", "z"]


class ConfigError(ValueError):
    """Configuration problem; rendered to stderr and mapped to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration in SI units (lambda kept in orders/hour)."""

    k: int | None = None
    l: float | None = None                 # meters
    wa: float | None = None                # meters
    v: float | None = None                 # meters/second
    dist: str | None = None                # distribution spec string
    pick_mean: float = 0.0                 # seconds
    pick_scv: float = 0.0
    heuristics: tuple = HEURISTICS
    pickers: int | None = None
    lam: float | None = None               # orders per hour
    samples: int = 100_000
    seed: int = 0
    out: str | None = None
    total_length: float | None = None      # meters
    k_min: int | None = None
    k_max: int | None = None
    allow_unstable: bool = False           # leadtime flag only; no config key


_SPEED_UNITS = {"m/s": 1.0, "km/h": 1000.0 / 3600.0}
_RATE_UNITS = {"": 1.0, "/h": 1.0, "per_hour": 1.0}


def _number(units: dict, what: str, positive: bool = False):
    """Parser of ``value [unit]`` text, scaled to SI by ``units`` (a unit is required
    when it has no ``""`` entry), finite and > 0 if ``positive``, else >= 0."""
    bound = "> 0" if positive else ">= 0"

    def parse(token: str, key: str) -> float:
        parts = token.split()
        if "" not in units and (len(parts) != 2 or parts[1] not in units):
            raise ConfigError(f"key {key!r}: {what} needs a unit,"
                              f" {' or '.join(map(repr, units))}, got {token!r}")
        if len(parts) not in (1, 2):
            raise ConfigError(f"key {key!r}: cannot parse {what} {token!r}")
        value, unit = parts[0], parts[1] if len(parts) == 2 else ""
        if unit not in units:
            raise ConfigError(f"key {key!r}: unknown unit {unit!r} (expected one of"
                              f" {sorted(u for u in units if u)})")
        try:
            number = float(value) * units[unit]
        except ValueError:
            raise ConfigError(f"key {key!r}: invalid number {value!r}") from None
        if not (number > 0.0 if positive else number >= 0.0) or number == math.inf:
            raise ConfigError(f"key {key!r}: {what} must be finite and {bound}, got {token!r}")
        return number
    return parse


_METERS = {"": 1.0, "m": 1.0}
_per_hour = _number(_RATE_UNITS, "rate", positive=True)


def _rate(token: str, key: str) -> float:
    """An arrival rate in orders/hour whose orders/second, as the queue takes
    it, is still > 0."""
    rate = _per_hour(token, key)
    if rate / 3600.0 == 0.0:
        raise ConfigError(f"key {key!r}: rate underflows to 0 orders per second, got {token!r}")
    return rate


def _count(what: str, least: int = 1):
    """Parser of an integer token that the library's ``as_count`` accepts."""
    def parse(token: str, key: str) -> int:
        try:
            value = int(token)
        except ValueError:
            raise ConfigError(f"key {key!r}: invalid integer {token!r}") from None
        return as_count(value, what, least)
    return parse


def _dist(token: str, key: str) -> str:
    parse_dist_spec(token)  # validate eagerly
    return token.strip()


def _heuristics(token: str, key: str) -> tuple:
    names = tuple(h.strip() for h in token.split(",") if h.strip())
    for h in names:
        if h not in HEURISTICS:
            raise ConfigError(f"key {key!r}: unknown heuristic {h!r}")
    if not names:
        raise ConfigError(f"key {key!r}: empty list")
    return names


# config key -> (RunConfig field, parser of the value text, flag help)
_KEYS = {
    "k": ("k", _count("aisle count"), None),
    "l": ("l", _number(_METERS, "length", positive=True), "aisle length in meters"),
    "wa": ("wa", _number(_METERS, "length"), "aisle spacing in meters"),
    "v": ("v", _number(_SPEED_UNITS, "speed", positive=True), "walking speed, e.g. '3 km/h' or '0.8 m/s'"),
    "dist": ("dist", _dist, "order-size spec, e.g. det:3, spois:4, geom:32, snbin:7:31"),
    "pick_mean": ("pick_mean", _number({"": 1.0, "s": 1.0}, "duration"), None),
    "pick_scv": ("pick_scv", _number({"": 1.0}, "ratio"), None),
    "heuristics": ("heuristics", _heuristics, "restrict to one heuristic (repeatable)"),
    "pickers": ("pickers", _count("picker count"), "number of pickers c, any integer >= 1"),
    "lambda": ("lam", _rate, "orders per hour"),
    "samples": ("samples", _count("replication count", least=2), None),
    "seed": ("seed", _count("seed", least=0), None),
    "out": ("out", lambda token, key: token.strip(), "output CSV path (default: stdout)"),
    "total_length": ("total_length", _number(_METERS, "length", positive=True), None),
    "k_min": ("k_min", _count("aisle count"), None),
    "k_max": ("k_max", _count("aisle count"), None),
}


def _apply_key(cfg: RunConfig, key: str, value: str, where: str) -> RunConfig:
    try:
        field, parse, _ = _KEYS[key]
    except KeyError:
        raise ConfigError(f"{where}: unknown key {key!r}") from None
    try:
        return replace(cfg, **{field: parse(value, key)})
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{where}: key {key!r}: {exc}") from None


def parse_config(text: str) -> RunConfig:
    """Parse the line-oriented ``key = value`` configuration format."""
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        cfg = _apply_key(cfg, key, value, f"line {lineno}")
    return cfg


def _require(cfg: RunConfig, *keys: str) -> None:
    missing = [key for key in keys if getattr(cfg, _KEYS[key][0]) is None]
    if missing:
        raise ConfigError("missing required key(s): " + ", ".join(missing))


def _fmt(value) -> str:
    if value is None or value != value:  # NaN
        return "NA"
    return repr(value) if isinstance(value, float) else str(value)


def emit_csv(rows, schema, path: str | None) -> None:
    """RFC-4180-style CSV with the exact header; deterministic row order.

    Written to stdout when ``path`` is None; an existing file at ``path`` is
    overwritten in place, keeping its inode, permissions and symlink target.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(schema)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
    data = buf.getvalue()
    if path is None:
        sys.stdout.write(data)
        return
    payload = data.encode("utf-8")
    # Overwrite in place, then cut any longer old tail: truncating a file to
    # zero first can stall for tens of ms while the filesystem flushes it.
    # Only a regular file is cut; a device or pipe cannot be truncated.
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(payload)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate(len(payload))


def _pick(cfg: RunConfig) -> PickTimeModel:
    if cfg.pick_mean * cfg.pick_mean * (1.0 + cfg.pick_scv) == math.inf:
        raise ConfigError(f"keys 'pick_mean' and 'pick_scv': the pick-time second moment"
                          f" pick_mean^2 (1 + pick_scv) must be finite, got {cfg.pick_mean!r}"
                          f" and {cfg.pick_scv!r}")
    return PickTimeModel.from_scv(cfg.pick_mean, cfg.pick_scv)


def _scenario(cfg: RunConfig) -> QueueScenario:
    _require(cfg, "pickers", "lambda")
    return QueueScenario(c=cfg.pickers, lam=cfg.lam / 3600.0)


def _model(cfg: RunConfig):
    """Warehouse, order-size law and pick-time model of a run."""
    _require(cfg, "k", "l", "wa", "v", "dist")
    return WarehouseConfig(k=cfg.k, l=cfg.l, wa=cfg.wa, v=cfg.v), parse_dist_spec(cfg.dist), _pick(cfg)


def _moment_rows(cfg: RunConfig, model):
    """(moments report, MOMENTS_SCHEMA row) for each requested heuristic."""
    wh, dist, pick = model
    for h in cfg.heuristics:
        rep = compute_moments(wh, dist, pick, h)
        yield rep, [h, wh.k, wh.l, wh.wa, wh.v, cfg.dist,
                    rep.e_t, rep.e_t2, rep.var_t, rep.sd_t, rep.e_tw, rep.e_ttr]


def _cmd_moments(cfg: RunConfig) -> int:
    emit_csv([row for _, row in _moment_rows(cfg, _model(cfg))], MOMENTS_SCHEMA, cfg.out)
    return EXIT_OK


def _cmd_simulate(cfg: RunConfig) -> int:
    wh, dist, pick = _model(cfg)
    estimates = run_replications_all(wh, dist, pick, cfg.samples, cfg.seed)
    rows = []
    for h in cfg.heuristics:
        est = estimates[h]
        rows.append([h, wh.k, wh.l, wh.wa, wh.v, cfg.dist, est.n, cfg.seed,
                     est.mean_t, est.se_mean, est.mean_t2, est.se_t2])
    emit_csv(rows, SIMULATE_SCHEMA, cfg.out)
    return EXIT_OK


def _cmd_leadtime(cfg: RunConfig) -> int:
    model, scenario = _model(cfg), _scenario(cfg)
    rows = []
    unstable = False
    for rep, row in _moment_rows(cfg, model):
        lead = lead_time_estimate(rep, scenario)
        unstable |= not lead.stable
        rows.append(row + [scenario.c, cfg.lam, lead.rho, lead.q_wait, lead.e_r])
    emit_csv(rows, LEADTIME_SCHEMA, cfg.out)
    if unstable and not cfg.allow_unstable:
        print("unstable queue (rho >= 1); pass --allow-unstable to emit NA rows", file=sys.stderr)
        return EXIT_UNSTABLE
    return EXIT_OK


def _cmd_layout(cfg: RunConfig) -> int:
    _require(cfg, "wa", "v", "dist", "k_min", "k_max")
    total = cfg.total_length
    if total is None:
        _require(cfg, "k", "l")
        total = cfg.k * cfg.l
    if cfg.k_min > cfg.k_max:
        raise ConfigError(f"keys 'k_min' and 'k_max': k_min must be <= k_max, got {cfg.k_min} > {cfg.k_max}")
    dist, pick = parse_dist_spec(cfg.dist), _pick(cfg)
    scenario = _scenario(cfg) if cfg.pickers is not None or cfg.lam is not None else None
    rows = layout_sweep(total, range(cfg.k_min, cfg.k_max + 1), cfg.wa, cfg.v, dist, pick,
                        scenario, cfg.heuristics)
    emit_csv([[row.k, row.l, h, row.cells[h].e_t, row.cells[h].e_r] for row in rows for h in cfg.heuristics],
             LAYOUT_SCHEMA, cfg.out)
    return EXIT_OK


def _cmd_validate(cfg: RunConfig) -> int:
    wh, dist, pick = _model(cfg)
    estimates = run_replications_all(wh, dist, pick, cfg.samples, cfg.seed)
    rows = []
    worst = 0.0
    for h in cfg.heuristics:
        rep = compute_moments(wh, dist, pick, h)
        est = estimates[h]
        for quantity, analytic, mc, se in (
                ("E_T", rep.e_t, est.mean_t, est.se_mean),
                ("E_T2", rep.e_t2, est.mean_t2, est.se_t2)):
            if se > 0:
                z = (analytic - mc) / se
            else:  # a constant T: MC differs from the truth by rounding only
                agree = math.isclose(analytic, mc, rel_tol=1e-12)
                z = 0.0 if agree else math.copysign(math.inf, analytic - mc)
            worst = max(worst, abs(z) if z == z else math.inf)  # a NaN z fails too
            rows.append([h, wh.k, cfg.dist, est.n, cfg.seed, quantity, analytic, mc, se, z])
    emit_csv(rows, VALIDATE_SCHEMA, cfg.out)
    if worst > 4.0:
        print(f"validation failed: max |z| = {worst:.2f} > 4", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


# subcommand -> (help, command of the RunConfig returning the exit status)
_COMMANDS = {
    "moments": ("analytic picking-time moments per heuristic", _cmd_moments),
    "simulate": ("Monte Carlo moment estimates with standard errors", _cmd_simulate),
    "leadtime": ("moments plus M/G/c mean lead-time approximation", _cmd_leadtime),
    "layout": ("sweep warehouse shapes at fixed total aisle length", _cmd_layout),
    "validate": ("analytic vs Monte Carlo z-score harness", _cmd_validate),
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="pickroute",
        description="Exact order-picking time moments, Monte Carlo validation, "
                    "lead-time estimates and layout sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        # every flag stores its text under its config key; _KEYS parses it
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", nargs="?", help="path to a key = value config file")
        for key, (_, _, flag_help) in _KEYS.items():
            if key == "heuristics":
                p.add_argument("--heuristic", action="append", dest=key, metavar="HEURISTIC", help=flag_help)
            else:
                p.add_argument("--" + key.replace("_", "-"), help=flag_help)
        if name == "leadtime":
            p.add_argument("--allow-unstable", action="store_true",
                           help="emit NA rows instead of failing when rho >= 1")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
    else:
        cfg = RunConfig()
    flags = dict(vars(args))
    if flags["v"] is not None and " " not in flags["v"]:
        flags["v"] += " m/s"   # a bare flag speed is in m/s
    if flags["heuristics"] is not None:
        flags["heuristics"] = ",".join(flags["heuristics"])
    for key in _KEYS:
        if flags[key] is not None:
            flag = "--heuristic" if key == "heuristics" else "--" + key.replace("_", "-")
            cfg = _apply_key(cfg, key, flags[key], flag)
    return replace(cfg, allow_unstable=flags.get("allow_unstable", False))


def run_command(command: str, cfg: RunConfig) -> int:
    """Dispatch a subcommand; returns the process exit status."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    try:
        return _COMMANDS[command][1](cfg)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    except ArithmeticError as exc:
        raise ConfigError(f"numerical failure: {exc}") from None
    except MemoryError as exc:
        raise ConfigError(f"not enough memory: {exc}") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = args.out
    try:
        try:
            cfg = _config_from_args(args)
            out = cfg.out
            return run_command(args.command, cfg)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            if out:
                emit_csv([[EXIT_CONFIG, str(exc)]], ["error_code", "message"], out)
            return EXIT_CONFIG
    except OSError as exc:  # the CSV, or the error CSV, could not be written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
