"""Command-line front end.

Subcommands:

    eval         print the full h(c) component breakdown for a scheme
    verify-table check every built-in reference scheme at its threshold
    optimize     improve a scheme and re-certify its threshold c*
    oracle       compare the finite arithmetic sums against the limit value
    check        run the quick self-check property suite
    scan         emit (c, h(c)) as CSV for plotting

Schemes come from a config file (flat key = value lines, polynomial
coefficients as ascending-degree arrays) or from a named preset:

    r  = 1.18
    c  = 0.515398
    f1 = [1.95, 1.47, -1.07, -0.29]
    f1t = [-0.7, -1.92]
    P  = [0, 0, 1]

Exit codes: 0 success, 1 validation failure, 2 degenerate-scheme or other
math failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .fracpoly import DomainError, FracPoly
from .hfunc import CoeffScheme, DegenerateSchemeError, HBreakdown, _kernel_moments, h_grid, h_value
from .optimizer import OptimizeConfig, grid_points, optimize_scheme, verify_table
from .presets import get_preset, preset_names
from .quadcheck import _kernel_rules, dimreduct_check, h_value_numeric
from .sieve import finite_h, mertens_deficit

__all__ = ["main", "main_entry"]

_SCALAR_KEYS = {
    "r",
    "c",
    "T",
    "c_lo",
    "c_hi",
    "c_step",
    "simplex_scale",
    "max_iters",
    # accepted for old config files and ignored: the optimizer is deterministic, and
    # threshold_c certifies the root of h = 1 to its rounding budget at any tol
    "seed",
    "bisection_tol",
}
_LIST_KEYS = {"f1", "f1t", "P"}
_KNOWN_KEYS = _SCALAR_KEYS | _LIST_KEYS


class CliError(Exception):
    """Validation failure surfaced to the user (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); route through CliError
        raise CliError(message)


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _is_finite_number(value) -> bool:
    """An int or float that is finite as a float; a boolean is not a number."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def parse_config_text(text: str) -> dict:
    """Parse the flat key = value config format; rejects unknown keys."""
    config: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise CliError(f"config line {lineno}: unknown key {key!r}")
        if key in config:
            raise CliError(f"config line {lineno}: duplicate key {key!r}")
        try:
            parsed = json.loads(value.strip())
        except json.JSONDecodeError as exc:
            raise CliError(f"config line {lineno}: bad value for {key!r}: {exc}") from exc
        if key in _LIST_KEYS:
            if not isinstance(parsed, list) or not all(map(_is_finite_number, parsed)):
                raise CliError(f"config line {lineno}: {key!r} must be an array of finite numbers")
        elif not _is_finite_number(parsed):
            raise CliError(f"config line {lineno}: {key!r} must be a finite number")
        config[key] = parsed
    return config


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read config {path!r}: {exc}") from exc


def _scheme_from_config(config: dict) -> CoeffScheme:
    for key in ("r", "f1"):
        if key not in config:
            raise CliError(f"config must set {key}")
    try:
        return CoeffScheme(
            r=float(config["r"]),
            f1=FracPoly.from_coeffs(config["f1"]),
            f1t=FracPoly.from_coeffs(config.get("f1t", [])),
            P=FracPoly.from_coeffs(config.get("P", [])),
        )
    except (ValueError, DomainError) as exc:
        raise CliError(f"invalid scheme: {exc}") from exc


def _resolve_scheme(args) -> tuple[CoeffScheme, dict]:
    """Scheme plus raw config dict from --config or --preset."""
    if getattr(args, "preset", None):
        try:
            preset = get_preset(args.preset)
        except KeyError as exc:
            raise CliError(str(exc)) from exc
        return preset.scheme, {"c": preset.c}
    if getattr(args, "config", None):
        config = _load_config(args.config)
        return _scheme_from_config(config), config
    raise CliError("one of --config or --preset is required")


def _write_scheme_config(path: str, scheme: CoeffScheme, c: float) -> None:
    """Emit a config file that round-trips the scheme bit-exactly."""

    def row(p: FracPoly) -> str:
        return "[" + ", ".join(repr(v) for v in p.to_coeffs().tolist()) + "]"

    lines = [
        f"r = {float(scheme.r)!r}",  # a numpy scalar's repr is not a config number
        f"c = {float(c)!r}",
        f"f1 = {row(scheme.f1)}",
        f"f1t = {row(scheme.f1t)}",
        f"P = {row(scheme.P)}",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _print_breakdown(hb: HBreakdown, out) -> None:
    items = hb.as_dict()
    for key, value in items.items():
        print(f"{key}={_fmt(value)}", file=out)
    body = ", ".join(f'"{k}": {_fmt(v)}' for k, v in items.items())
    print("{" + body + "}", file=out)


def _require_c(args, config) -> float:
    c = args.c if args.c is not None else config.get("c")
    if c is None:
        raise CliError("no c given; set it in the config or pass --c")
    c = float(c)
    if not (0.0 < c < 1.0):
        raise CliError("c must lie strictly between 0 and 1")
    return c


def _cmd_eval(args, out) -> int:
    scheme, config = _resolve_scheme(args)
    _print_breakdown(h_value(scheme, _require_c(args, config)), out)
    return 0


def _cmd_verify_table(args, out) -> int:
    report = verify_table()
    if args.json:
        rows = [
            {
                "name": row.name,
                "c": row.c,
                "r": row.r,
                "margin_direct": row.margin,
                "recovered": False,
                "margin_final": row.margin,
                "passed": row.passed,
            }
            for row in report.rows
        ]
        print(json.dumps(rows, indent=2), file=out)
    else:
        for row in report.rows:
            verdict = "PASS" if row.passed else "FAIL"
            print(
                f"{row.name}: c={_fmt(row.c)} r={_fmt(row.r)} "
                f"margin={_fmt(row.margin)} (direct) {verdict}",
                file=out,
            )
        print("all rows pass" if report.all_passed else "some rows FAIL", file=out)
    return 0 if report.all_passed else 2


def _cmd_optimize(args, out) -> int:
    scheme, config = _resolve_scheme(args)
    d1, d2, d3 = (p.to_coeffs().size - 1 for p in (scheme.f1, scheme.f1t, scheme.P))
    cfg_kwargs = {"degrees": (d1, d2, max(d3, 1))}
    missing = [key for key in ("c_lo", "c_hi", "c_step") if key not in config]
    if 0 < len(missing) < 3:
        raise CliError(f"a scan grid needs c_lo, c_hi and c_step; missing {', '.join(missing)}")
    if not missing:
        cfg_kwargs["c_grid"] = (config["c_lo"], config["c_hi"], config["c_step"])
    for key in ("max_iters", "simplex_scale"):
        if key in config:
            cfg_kwargs[key] = type(getattr(OptimizeConfig(), key))(config[key])
    if cfg_kwargs.get("max_iters") != config.get("max_iters"):  # int() truncates 2.7 to 2
        raise CliError(f"max_iters must be an integer, got {config['max_iters']}")
    try:
        cfg = OptimizeConfig(**cfg_kwargs)
    except ValueError as exc:
        raise CliError(f"invalid optimizer settings: {exc}") from exc

    report = optimize_scheme(cfg, scheme)
    print(f"c_star={_fmt(report.c_star)}", file=out)
    print(f"margin={_fmt(report.margin)}", file=out)
    print(f"iterations={len(report.trace)}", file=out)

    with open(args.trace_out, "w", encoding="utf-8") as fh:
        fh.write("iteration,objective\n")
        for iteration, objective in report.trace:
            fh.write(f"{iteration},{_fmt(objective)}\n")
    print(f"trace written to {args.trace_out}", file=out)

    _write_scheme_config(args.scheme_out, report.best_scheme, report.c_star)
    print(f"best scheme written to {args.scheme_out}", file=out)
    return 0


def _cmd_oracle(args, out) -> int:
    scheme, config = _resolve_scheme(args)
    c = _require_c(args, config)
    t_param = args.T if args.T is not None else config.get("T")
    if t_param is None:
        raise CliError("no T given; set it in the config or pass --T")
    h_lim = h_value(scheme, c).h  # first, so a degenerate scheme fails before the sieve runs
    try:
        h_fin, num, den = finite_h(scheme, c, float(t_param))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    print(f"h_finite={_fmt(h_fin)}", file=out)
    print(f"num={_fmt(num)}", file=out)
    print(f"den={_fmt(den)}", file=out)
    print(f"h_limit={_fmt(h_lim)}", file=out)
    rel = abs(h_fin - h_lim) / abs(h_lim) if h_lim != 0 else math.inf
    print(f"rel_deviation={_fmt(rel)}", file=out)
    return 0


def _cmd_scan(args, out) -> int:
    scheme, _ = _resolve_scheme(args)
    if not (0.0 < args.clo < args.chi < 1.0) or not 0 < args.step < math.inf:
        raise CliError("need 0 < --clo < --chi < 1 and a finite --step > 0")
    try:
        grid = grid_points(args.clo, args.chi, args.step)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    print("c,h", file=out)
    for c, h in zip(grid, h_grid(scheme, grid).tolist()):
        print(f"{_fmt(c)},{_fmt(h)}", file=out)
    return 0


def _cmd_check(args, out) -> int:
    """Quick self-check suite: the kernel moments against quadrature, the nested-integral
    reduction, the prime-log-sum bound, and quadrature-vs-exact agreement."""
    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        if not ok:
            failures += 1
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})", file=out)

    # the kernel moments h reads, <K, x**n> (hfunc._kernel_moments), against the oracle's
    # Gauss-Jacobi rules (Golub-Welsch), which are exact on these polynomials
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        r = 1.0 + float(rng.uniform(0.6, 2.8)) / 5.6
        p = FracPoly.from_coeffs([0.0] + [float(rng.uniform(-2, 2)) for _ in range(5)])
        for mu, (x, w) in zip(_kernel_moments(r, p.to_coeffs()), _kernel_rules(r, p, 48)):
            ref = w @ np.power.outer(x, np.arange(mu.size))
            worst = max(worst, float(np.max(abs(mu - ref) / np.maximum(abs(ref), 1e-30))))
    report("kernel moments vs quadrature", worst < 1e-10, f"max rel err {worst:.2e}")

    # nested-integral reduction identity
    worst = 0.0
    for _ in range(5):
        m = int(rng.integers(1, 4))
        a_vec = [int(rng.integers(1, 4)) for _ in range(m)]
        poly = FracPoly.from_coeffs([float(rng.uniform(-1, 1)) for _ in range(4)])
        lhs, rhs = dimreduct_check(m, a_vec, poly, float(rng.uniform(1.5, math.e**3)))
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    report("nested-integral reduction", worst < 1e-9, f"max rel err {worst:.2e}")

    # prime log-sum deficit stays bounded
    deficits = [mertens_deficit(y) for y in (10**4, 10**5)]
    ok = all(-3.0 < d < 0.0 for d in deficits)
    report("prime log-sum deficit bounded", ok, f"values {[f'{d:.3f}' for d in deficits]}")

    # quadrature oracle agrees with the exact pipeline, to perfbench's cross-check tolerance
    preset = get_preset("table1-row1")
    exact = h_value(preset.scheme, preset.c)
    numeric = h_value_numeric(preset.scheme, preset.c, order=32)
    worst = max(
        abs(e - n) / abs(n) for e, n in zip(exact.components(), numeric.components())
    )
    report("quadrature vs exact components", worst < 1e-12, f"max rel err {worst:.2e}")

    return 0 if failures == 0 else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="zetagaps", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scheme_opts(p):
        p.add_argument("--config", help="path to a scheme config file")
        p.add_argument(
            "--preset", help=f"built-in scheme: {', '.join(preset_names())}"
        )

    p_eval = sub.add_parser("eval", help="print the h(c) component breakdown")
    add_scheme_opts(p_eval)
    p_eval.add_argument("--c", type=float, help="override c from the config")

    p_table = sub.add_parser("verify-table", help="check the built-in reference schemes")
    p_table.add_argument("--json", action="store_true", help="emit JSON")

    p_opt = sub.add_parser("optimize", help="improve a scheme and re-certify c*")
    add_scheme_opts(p_opt)
    p_opt.add_argument("--trace-out", default="trace.csv", help="iteration trace CSV")
    p_opt.add_argument(
        "--scheme-out", default="best_scheme.cfg", help="best scheme config output"
    )

    p_oracle = sub.add_parser("oracle", help="finite arithmetic sums vs the limit")
    add_scheme_opts(p_oracle)
    p_oracle.add_argument("--c", type=float, help="override c from the config")
    p_oracle.add_argument("--T", type=float, help="sets mollifier length T/log(T)^2")

    sub.add_parser("check", help="run the quick self-check property suite")

    p_scan = sub.add_parser("scan", help="CSV of (c, h(c)) over a grid")
    add_scheme_opts(p_scan)
    p_scan.add_argument("--clo", type=float, required=True)
    p_scan.add_argument("--chi", type=float, required=True)
    p_scan.add_argument("--step", type=float, required=True)

    return parser


_COMMANDS = {
    "eval": _cmd_eval,
    "verify-table": _cmd_verify_table,
    "optimize": _cmd_optimize,
    "oracle": _cmd_oracle,
    "check": _cmd_check,
    "scan": _cmd_scan,
}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DegenerateSchemeError, DomainError, ArithmeticError) as exc:
        print(f"math error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())
