import ast
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from zetagaps.cli import main, parse_config_text, CliError, _fmt, _write_scheme_config
from zetagaps.hfunc import CoeffScheme, h_value
from zetagaps.optimizer import grid_points
from zetagaps.presets import get_preset


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


# ---------------------------------------------------------------- config parsing


def test_parse_config_roundtrip():
    text = """
    # reference scheme
    r = 1.18
    c = 0.515398
    f1 = [1.95, 1.47, -1.07, -0.29]
    f1t = [-0.7, -1.92]
    P = [0, 0, 1]
    """
    config = parse_config_text(text)
    assert config["r"] == 1.18
    assert config["f1"] == [1.95, 1.47, -1.07, -0.29]


def test_parse_config_rejects_unknown_key():
    with pytest.raises(CliError):
        parse_config_text("bogus = 1\n")


def test_parse_config_rejects_bad_value():
    with pytest.raises(CliError):
        parse_config_text("r = [1, oops]\n")


def test_parse_config_rejects_duplicate_key():
    with pytest.raises(CliError):
        parse_config_text("r = 1.18\nr = 1.2\n")


@pytest.mark.parametrize(
    "text",
    [
        "r = true\n",
        "f1 = [1.0, false]\n",
        "max_iters = 1e400\n",
        "c = NaN\n",
        "T = -Infinity\n",
        "f1 = [NaN, 1.0]\n",
        "r = 1" + "0" * 400 + "\n",
    ],
    ids=["bool", "bool-in-array", "overflow", "nan", "minus-inf", "nan-in-array", "huge-int"],
)
def test_parse_config_rejects_booleans_and_non_finite_numbers(text):
    with pytest.raises(CliError, match="config line 1"):
        parse_config_text(text)


def test_eval_non_finite_coefficient_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "scheme.cfg"
    cfg.write_text("r = 1.18\nc = 0.52\nf1 = [NaN, 1.0]\n")
    code, out = run_cli(["eval", "--config", str(cfg)])
    assert code == 1
    assert out == ""
    assert "config line 3" in capsys.readouterr().err


# ---------------------------------------------------------------- eval


def test_eval_preset_breakdown():
    code, out = run_cli(["eval", "--preset", "table1-row1"])
    assert code == 0
    lines = out.strip().splitlines()
    keyvals = dict(line.split("=", 1) for line in lines[:-1])
    assert float(keyvals["h"]) > 1.0
    payload = json.loads(lines[-1])
    assert payload["h"] == pytest.approx(float(keyvals["h"]), rel=1e-14)
    assert set(payload) == {
        "c", "d1", "d2", "d31", "d32",
        "n1", "n2", "n31", "n32", "n41", "n42", "n43", "h",
    }


def test_eval_zero_p_config(tmp_path):
    cfg = tmp_path / "scheme.cfg"
    cfg.write_text("r = 1.18\nc = 0.52\nf1 = [1.95, 1.47, -1.07, -0.29]\nf1t = [-0.7, -1.92]\n")
    code, out = run_cli(["eval", "--config", str(cfg)])
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    for key in ("d2", "d31", "d32", "n2", "n31", "n32", "n41", "n42", "n43"):
        assert payload[key] == 0.0


def test_eval_c_override(tmp_path):
    cfg = tmp_path / "scheme.cfg"
    cfg.write_text("r = 1.18\nf1 = [1.0]\n")
    code, out = run_cli(["eval", "--config", str(cfg), "--c", "0.6"])
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["c"] == 0.6


def test_eval_missing_c_is_validation_error(tmp_path):
    cfg = tmp_path / "scheme.cfg"
    cfg.write_text("r = 1.18\nf1 = [1.0]\n")
    code, _ = run_cli(["eval", "--config", str(cfg)])
    assert code == 1


def test_eval_invalid_scheme_is_validation_error(tmp_path):
    cfg = tmp_path / "scheme.cfg"
    cfg.write_text("r = 0.5\nc = 0.52\nf1 = [1.0]\n")  # r below 1
    code, _ = run_cli(["eval", "--config", str(cfg)])
    assert code == 1


def test_eval_degenerate_scheme_is_math_error(tmp_path):
    cfg = tmp_path / "scheme.cfg"
    cfg.write_text("r = 1.18\nc = 0.52\nf1 = [0]\n")
    code, _ = run_cli(["eval", "--config", str(cfg)])
    assert code == 2


def test_eval_requires_scheme_source():
    code, _ = run_cli(["eval"])
    assert code == 1


_OVERFLOW = "c = 0.5\nf1t = [1]\nP = [0, 0, 1]\n"  # with an r or f1 too large for floats
_NON_FINITE_DEN = "math error: denominator components not finite: d1=inf"


@pytest.mark.parametrize(
    "argv, text, code, line",
    [
        (["eval", "--bogus"], "r = 1.18\nc = 0.5\nf1 = [1.0]\n", 1,
         "error: unrecognized arguments: --bogus"),
        (["eval"], "r = 1.18\nf1\n", 1, "error: config line 2: expected 'key = value'"),
        (["eval"], None, 1, "error: cannot read config '.*missing.cfg': .*"),
        (["eval"], "c = 0.5\nf1 = [1.0]\n", 1, "error: config must set r"),
        (["eval"], "r = 1.18\nc = 0.5\n", 1, "error: config must set f1"),
        (["eval", "--c", "1.0"], "r = 1.18\nf1 = [1.0]\n", 1,
         "error: c must lie strictly between 0 and 1"),
        (["oracle"], "r = 1.18\nc = 0.5\nf1 = [1.0]\n", 1,
         "error: no T given; set it in the .* pass --T"),
        (["eval"], _OVERFLOW + "f1 = [1]\nr = 1.2e77\n", 1,
         r"error: invalid scheme: r must be >= 1 with a finite .* r\*\*4, got r=1.2e\+77"),
        (["eval"], _OVERFLOW + "f1 = [1]\nr = 1.4e154\n", 1,
         r"error: invalid scheme: r must be .*, got r=1.4e\+154"),
        (["eval"], _OVERFLOW + "f1 = [1]\nr = 1e77\n", 2,
         r"math error: denominator 1.000e-154 is below the floor 1e-12"),
        (["eval"], _OVERFLOW + "f1 = [1e160]\nr = 1.18\n", 2, _NON_FINITE_DEN),
        (["oracle", "--T", "1e6"], _OVERFLOW + "f1 = [1e160]\nr = 1.18\n", 2, _NON_FINITE_DEN),
        (["eval"], "c = 0.5\nf1 = [1]\nf1t = [1]\nP = [0, 0, 1e160]\nr = 1.18\n", 2,
         "math error: denominator components not finite: d31=nan, d32=nan"),
    ],
    ids=[
        "usage", "no-equals", "unreadable", "no-r", "no-f1", "c-outside", "no-T",
        "r4-overflow", "r2-overflow", "r-vanishing-den", "f1-overflow", "f1-overflow-oracle",
        "p-overflow",
    ],
)
def test_validation_error_is_one_error_line(tmp_path, capsys, argv, text, code, line):
    # a failed command prints nothing but one stderr line, and no warning or traceback
    cfg = tmp_path / "missing.cfg"
    if text is not None:
        cfg.write_text(text)
    got, out = run_cli(argv + ["--config", str(cfg)])
    assert got == code
    assert out == ""
    assert re.fullmatch(f"{line}\n", capsys.readouterr().err)


# ---------------------------------------------------------------- verify-table


def test_verify_table_passes():
    code, out = run_cli(["verify-table"])
    assert code == 0
    assert "all rows pass" in out
    assert out.count("PASS") == 3


def test_verify_table_json():
    code, out = run_cli(["verify-table", "--json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    assert all(row["passed"] for row in rows)
    for row in rows:
        assert set(row) == {
            "name", "c", "r", "margin_direct", "recovered", "margin_final", "passed"
        }
        assert row["recovered"] is False
        assert row["margin_final"] == row["margin_direct"] > 0.0


# ---------------------------------------------------------------- scan


def test_scan_csv_shape():
    code, out = run_cli(
        ["scan", "--preset", "table1-row1", "--clo", "0.50", "--chi", "0.53", "--step", "0.005"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "c,h"
    assert len(lines) == 8  # header + 7 rows
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    assert float(first[1]) < 1.0
    last = lines[-1].split(",")
    assert float(last[0]) == 0.53
    assert float(last[1]) > 1.0


# the README's scan, as printed when every row was its own h_value call
README_SCAN_CSV = """\
c,h
0.5,0.971572126858686
0.505,0.980817546598969
0.51,0.99004969756531
0.515,0.999268485203139
0.52,1.00847381595836
0.525,1.01766559728306
0.53,1.02684373764104
"""


def test_scan_rows_equal_h_value():
    code, out = run_cli(
        ["scan", "--preset", "table1-row1", "--clo", "0.50", "--chi", "0.53", "--step", "0.005"]
    )
    assert code == 0
    assert out == README_SCAN_CSV
    scheme = get_preset("table1-row1").scheme
    rows = out.splitlines()[1:]
    grid = grid_points(0.50, 0.53, 0.005)
    assert [row.split(",")[1] for row in rows] == [_fmt(h_value(scheme, c).h) for c in grid]


def test_scan_ends_at_chi():
    code, out = run_cli(
        ["scan", "--preset", "table1-row1", "--clo", "0.5", "--chi", "0.5154", "--step", "0.001"]
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 17
    assert [float(row.split(",")[0]) for row in rows[-2:]] == [0.515, 0.5154]


def test_scan_validation(capsys):
    for clo, chi, step in (("0.6", "0.5", "0.01"), ("0.5", "0.52", "nan"), ("0.5", "0.52", "inf")):
        code, out = run_cli(
            ["scan", "--preset", "table1-row1", "--clo", clo, "--chi", chi, "--step", step]
        )
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err == (
            "error: need 0 < --clo < --chi < 1 and a finite --step > 0\n"
        )


def test_scan_rejects_a_grid_too_large(capsys):
    # 3e298 points would never return; the grid's own limit is one error line
    code, out = run_cli(
        ["scan", "--preset", "table1-row1", "--clo", "0.5", "--chi", "0.53", "--step", "1e-300"]
    )
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err == (
        "error: step 1e-300 gives 3e+298 grid points, over the limit of 100000\n"
    )


# ---------------------------------------------------------------- optimize


def test_optimize_roundtrip(tmp_path):
    cfg = tmp_path / "start.cfg"
    cfg.write_text(
        "r = 1.18\n"
        "f1 = [1.95, 1.47, -1.07, -0.29]\n"
        "f1t = [-0.7, -1.92]\n"
        "P = [0, 0, 1]\n"
        "max_iters = 40\n"
        "seed = 3\n"  # still accepted, and ignored
    )
    trace = tmp_path / "trace.csv"
    best = tmp_path / "best.cfg"
    code, out = run_cli(
        ["optimize", "--config", str(cfg), "--trace-out", str(trace), "--scheme-out", str(best)]
    )
    assert code == 0
    reported = dict(
        line.split("=", 1) for line in out.strip().splitlines() if "=" in line and "," not in line
    )
    margin = float(reported["margin"])

    # trace format: header plus (iteration, objective) rows
    trace_lines = trace.read_text().strip().splitlines()
    assert trace_lines[0] == "iteration,objective"
    assert all(len(line.split(",")) == 2 for line in trace_lines[1:])

    # the emitted config re-evaluates to the reported margin
    code2, out2 = run_cli(["eval", "--config", str(best)])
    assert code2 == 0
    h = json.loads(out2.strip().splitlines()[-1])["h"]
    assert abs((h - 1.0) - margin) < 1e-12


def test_scheme_config_roundtrips_numpy_scalars(tmp_path):
    # the optimizer's r and c can be numpy scalars, whose repr is not a config number
    preset = get_preset("table1-row3")
    s = preset.scheme
    scheme = CoeffScheme(np.float64(s.r), s.f1, s.f1t, s.P)
    path = tmp_path / "best.cfg"
    _write_scheme_config(str(path), scheme, np.float64(preset.c))
    assert "np." not in path.read_text()
    code, out = run_cli(["eval", "--config", str(path)])
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["h"] == float(_fmt(h_value(s, preset.c).h))


def test_optimize_from_p_equal_x(tmp_path):
    # P = x makes the denominator form singular at degrees (3, 1); its threshold lies
    # between two points of the default scan grid
    cfg = tmp_path / "start.cfg"
    cfg.write_text("r = 1.18\nf1 = [1.95, 1.47, -1.07, -0.29]\nf1t = [-0.7, -1.92]\nP = [0, 1]\n")
    best = tmp_path / "best.cfg"
    code, out = run_cli(
        ["optimize", "--config", str(cfg), "--trace-out", str(tmp_path / "trace.csv"),
         "--scheme-out", str(best)]
    )
    assert code == 0
    reported = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
    assert float(reported["margin"]) > 0.0
    code2, out2 = run_cli(["eval", "--config", str(best)])
    assert code2 == 0
    h = json.loads(out2.strip().splitlines()[-1])["h"]
    assert abs((h - 1.0) - float(reported["margin"])) < 1e-12


def test_optimize_without_sign_change_is_math_error(tmp_path, capsys):
    # h(c) - 1 stays negative on the whole default grid for f1 = 1 - u
    cfg = tmp_path / "start.cfg"
    cfg.write_text("r = 1.18\nc = 0.5154\nf1 = [1.0, -1.0]\n")
    trace = tmp_path / "trace.csv"
    code, out = run_cli(
        ["optimize", "--config", str(cfg), "--trace-out", str(trace),
         "--scheme-out", str(tmp_path / "best.cfg")]
    )
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == (
        "math error: h(c) - 1 has no sign change on the scan grid, and h(c_lo) - 1 = "
        "-1.330e-01 is not above its rounding budget 1.043e-14\n"
    )
    assert not trace.exists()


def test_optimize_c_lo_within_the_budget_is_math_error(tmp_path, capsys):
    # h - 1 > 0 on the whole grid from table1-row1, but at c_lo only 9.8e-15, below the
    # rounding budget of h: c_lo certifies by threshold_c's rule or not at all.  c_lo is the
    # float where h - 1 first exceeds half the budget, found by bisection on h_value as in
    # test_optimizer.py::test_certify_c_lo_only_above_the_rounding_budget
    cfg = tmp_path / "start.cfg"
    cfg.write_text(
        "r = 1.18\nf1 = [1.95, 1.47, -1.07, -0.29]\nf1t = [-0.7, -1.92]\nP = [0, 0, 1]\n"
        "c_lo = 0.5153970643207815\nc_hi = 0.53\nc_step = 0.001\n"
    )
    code, out = run_cli(["optimize", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == (
        "math error: h(c) - 1 has no sign change on the scan grid, and h(c_lo) - 1 = "
        "9.770e-15 is not above its rounding budget 1.920e-14\n"
    )


def test_optimize_reads_scan_grid_and_ignores_bisection_tol(tmp_path):
    cfg = tmp_path / "start.cfg"

    def optimize(extra):
        cfg.write_text(
            "r = 1.18\nf1 = [1.95, 1.47, -1.07, -0.29]\nf1t = [-0.7, -1.92]\nP = [0, 0, 1]\n"
            + extra
        )
        code, out = run_cli(
            ["optimize", "--config", str(cfg), "--trace-out", str(tmp_path / "trace.csv"),
             "--scheme-out", str(tmp_path / "best.cfg")]
        )
        assert code == 0
        return out

    plain = optimize("")
    assert plain.splitlines()[0] == "c_star=0.515396149748736"
    # accepted for old config files and ignored
    assert optimize("bisection_tol = 1e-9\n") == plain
    # a grid around the root certifies the same c*; where h > 1 at c_lo, c_lo is c*
    assert optimize("c_lo = 0.51\nc_hi = 0.52\nc_step = 0.0005\n") == plain
    assert optimize("c_lo = 0.52\nc_hi = 0.53\nc_step = 0.001\n").startswith("c_star=0.52\n")


@pytest.mark.parametrize("value, code", [("2.7", 1), ("0.0", 0)])
def test_optimize_max_iters_must_be_integral(tmp_path, capsys, value, code):
    # a fractional count is rejected, not truncated; an integral float is a count
    cfg = tmp_path / "start.cfg"
    cfg.write_text(
        "r = 1.18\nf1 = [1.95, 1.47, -1.07, -0.29]\nf1t = [-0.7, -1.92]\nP = [0, 0, 1]\n"
        f"max_iters = {value}\n"
    )
    trace = tmp_path / "trace.csv"
    got, out = run_cli(
        ["optimize", "--config", str(cfg), "--trace-out", str(trace),
         "--scheme-out", str(tmp_path / "best.cfg")]
    )
    assert got == code
    if code:
        assert out == ""
        assert capsys.readouterr().err == "error: max_iters must be an integer, got 2.7\n"
    assert trace.exists() == (code == 0)


def test_optimize_reports_the_bad_setting(tmp_path, capsys):
    # OptimizeConfig's ValueError reaches the user as a CliError naming the field
    cfg = tmp_path / "start.cfg"
    cfg.write_text(
        "r = 1.18\nf1 = [1.95, 1.47, -1.07, -0.29]\nf1t = [-0.7, -1.92]\nP = [0, 0, 1]\n"
        "max_iters = -1\n"
    )
    trace = tmp_path / "trace.csv"
    code, out = run_cli(
        ["optimize", "--config", str(cfg), "--trace-out", str(trace),
         "--scheme-out", str(tmp_path / "best.cfg")]
    )
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err == (
        "error: invalid optimizer settings: max_iters must be a nonnegative integer, got -1\n"
    )
    assert not trace.exists()


def test_optimize_rejects_a_grid_too_large(tmp_path, capsys):
    cfg = tmp_path / "start.cfg"
    cfg.write_text(
        "r = 1.18\nf1 = [1.95, 1.47, -1.07, -0.29]\nf1t = [-0.7, -1.92]\nP = [0, 0, 1]\n"
        "c_lo = 0.5\nc_hi = 0.53\nc_step = 1e-300\n"
    )
    trace = tmp_path / "trace.csv"
    code, out = run_cli(
        ["optimize", "--config", str(cfg), "--trace-out", str(trace),
         "--scheme-out", str(tmp_path / "best.cfg")]
    )
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err == (
        "error: invalid optimizer settings: step 1e-300 gives 3e+298 grid points, "
        "over the limit of 100000\n"
    )
    assert not trace.exists()


@pytest.mark.parametrize(
    "grid, missing", [("c_lo = 0.2\n", "c_hi, c_step"), ("c_hi = 0.6\nc_step = 0.01\n", "c_lo")]
)
def test_optimize_rejects_partial_scan_grid(tmp_path, capsys, grid, missing):
    # a partial grid is an error, not a request for the default grid
    cfg = tmp_path / "start.cfg"
    cfg.write_text("r = 1.18\nf1 = [1.95, 1.47, -1.07, -0.29]\nf1t = [-0.7, -1.92]\n" + grid)
    trace = tmp_path / "trace.csv"
    code, out = run_cli(
        ["optimize", "--config", str(cfg), "--trace-out", str(trace),
         "--scheme-out", str(tmp_path / "best.cfg")]
    )
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err == (
        f"error: a scan grid needs c_lo, c_hi and c_step; missing {missing}\n"
    )
    assert not trace.exists()


# ---------------------------------------------------------------- oracle / check


def test_oracle_fields(tmp_path):
    code, out = run_cli(["oracle", "--preset", "table1-row1", "--T", "1e4"])
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert set(fields) == {"h_finite", "num", "den", "h_limit", "rel_deviation"}
    assert float(fields["den"]) > 0


def test_oracle_small_t_is_validation_error():
    code, _ = run_cli(["oracle", "--preset", "table1-row1", "--T", "200"])
    assert code == 1


@pytest.mark.parametrize(
    "t_value, pattern",
    [
        ("nan", r"error: T must be finite, got T=nan\n"),
        ("inf", r"error: T must be finite, got T=inf\n"),
        ("1e30", r"error: T=1e\+30 gives mollifier length \d+ above MAX_TABLE_LIMIT = 100000000\n"),
    ],
)
def test_oracle_bad_t_is_validation_error_naming_t(capsys, t_value, pattern):
    code, out = run_cli(["oracle", "--preset", "table1-row1", "--T", t_value])
    assert code == 1
    assert out == ""
    assert re.fullmatch(pattern, capsys.readouterr().err)


def test_check_passes():
    code, out = run_cli(["check"])
    assert code == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out


# ---------------------------------------------------------------- entry point


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "zetagaps", "verify-table"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "all rows pass" in proc.stdout


def test_unknown_preset_is_validation_error():
    code, _ = run_cli(["eval", "--preset", "nope"])
    assert code == 1


def test_import_loads_no_heavy_scipy_subpackage():
    # scipy.optimize alone adds about 22 MB of resident memory at import;
    # modules that need one of these import it inside the function using it
    import zetagaps

    src = str(pathlib.Path(zetagaps.__file__).resolve().parents[1])
    code = (
        "import sys, zetagaps, zetagaps.cli; "
        "print(sorted(m for m in "
        "('scipy.optimize', 'scipy.integrate', 'scipy.linalg', 'scipy.special') "
        "if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_exact_path_imports_no_scipy():
    # fracpoly and hfunc take every Beta value from one ladder (fracpoly._beta_grid), the
    # optimizer's eigen search uses numpy.linalg, quadcheck builds its Gauss rules with
    # numpy and `zetagaps check` takes its kernel-moment reference from quadcheck's rules;
    # scipy is a test dependency only
    import zetagaps

    root = pathlib.Path(zetagaps.__file__).parent
    for name in ("fracpoly.py", "hfunc.py", "optimizer.py", "quadcheck.py", "cli.py"):
        tree = ast.parse((root / name).read_text())
        modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        modules += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        assert not [m for m in modules if m.split(".")[0] == "scipy"], (name, modules)


def test_quadrature_oracle_loads_no_scipy():
    # import scipy.special alone takes 0.25-0.30 s, scipy.linalg another 0.07-0.12 s and
    # scipy.integrate 0.63 s and 49 MB.  The check call runs all four self-checks, the
    # kernel moments against quadcheck's Gauss-Jacobi rules first.
    import zetagaps

    src = str(pathlib.Path(zetagaps.__file__).resolve().parents[1])
    code = (
        "import io, sys, math; "
        "from zetagaps import PRESETS; "
        "from zetagaps.cli import main; "
        "from zetagaps.fracpoly import FracPoly; "
        "from zetagaps.quadcheck import dimreduct_check, h_value_numeric; "
        "row1 = PRESETS[0]; h_value_numeric(row1.scheme, row1.c); "
        "dimreduct_check(2, (1, 2), FracPoly.from_coeffs([1.0, 0.0, 0.5]), math.e**3); "
        "assert main(['check'], io.StringIO()) == 0; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
