import json
from dataclasses import replace
from pathlib import Path

import pytest

from varjet import checks, cli, oracle
from varjet.cli import main
from varjet.expr import Expr, Sym
from varjet.jetcalc import NaturalityReport
from varjet.multiindex import MultiIndex
from varjet.parser import MAX_NESTING

SPECS = Path(__file__).resolve().parent.parent / "specs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_el_harmonic_oscillator(capsys):
    code, out, err = run(capsys, "el", str(SPECS / "harmonic_oscillator.vspec"))
    assert code == 0
    assert "E_u = -u - u_xx" in out
    assert err == ""


def test_el_latex(capsys):
    code, out, _ = run(capsys, "el", str(SPECS / "harmonic_oscillator.vspec"), "--latex")
    assert code == 0
    assert "u_{x x}" in out


def test_el_json(capsys):
    code, out, _ = run(capsys, "el", str(SPECS / "harmonic_oscillator.vspec"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["classical"] is True
    assert payload["components"][0]["expr"] == "-u - u_xx"


def test_fed_top_degree_prints_zero(tmp_path, capsys):
    spec = tmp_path / "top.vspec"
    spec.write_text("[bundle]\nbase = x\nfiber = u\n[define]\nmorphism phi r=1 = u_x dx[1]\n[task]\nfed phi\n")
    code, out, _ = run(capsys, "fed", str(spec))
    assert code == 0
    assert "Dphi = 0" in out


def test_el_over_intermediate_space(capsys):
    # base of the over=fiber view is (x, p): a two-direction Laplace equation
    code, out, _ = run(capsys, "el", str(SPECS / "functional_lagrangian.vspec"))
    assert code == 0
    assert "E_z = -z_xx - z_pp" in out


def test_natural_and_commute(capsys):
    code, out, _ = run(capsys, "natural", str(SPECS / "differential_demo.vspec"))
    assert code == 0 and "holds" in out
    code, out, _ = run(capsys, "commute", str(SPECS / "functional_tower.vspec"))
    assert code == 0 and "holds" in out


def test_fjet_table(capsys):
    code, out, _ = run(capsys, "fjet", str(SPECS / "functional_tower.vspec"))
    assert code == 0
    assert "z_p,x = 2*p" in out


def test_oracle_exit_codes(tmp_path, capsys):
    code, out, _ = run(capsys, "oracle", str(SPECS / "harmonic_oscillator.vspec"), "--grid", "500")
    assert code == 0 and "oracle: ok" in out
    code, out, _ = run(
        capsys, "oracle", str(SPECS / "harmonic_oscillator.vspec"), "--grid", "500", "--tolerance", "1e-18"
    )
    assert code == 2 and "FAILED" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.vspec"
    bad.write_text("[bundle]\nbase = x\nfiber = u\n[define]\nlagrangian L = (u_y) dx[1]\n")
    code, out, err = run(capsys, "el", str(bad))
    assert code == 1
    assert "error" in err


def nested_spec(tmp_path, opening: str, depth: int) -> str:
    body = opening * depth + "u_x" + ")" * depth
    spec = tmp_path / f"nested{depth}.vspec"
    spec.write_text(f"[bundle]\nbase = x\nfiber = u\n[define]\nlagrangian L = {body} dx[1]\n")
    return str(spec)


@pytest.mark.parametrize("opening", ["(", "sin("])
def test_deep_nesting_is_a_one_line_parse_error(tmp_path, capsys, opening):
    code, out, err = run(capsys, "el", nested_spec(tmp_path, opening, 3000))
    assert code == 1 and out == ""
    lines = err.splitlines()
    # the offending token is the parenthesis one level past the limit
    column = len("lagrangian L = ") + MAX_NESTING * len(opening) + len(opening)
    assert len(lines) == 1 and lines[0].startswith(f"error: 5:{column}: ")
    assert f"deeper than {MAX_NESTING} levels" in lines[0]
    assert "Traceback" not in err


def test_nesting_below_the_limit_still_runs(tmp_path, capsys):
    code, out, err = run(capsys, "el", nested_spec(tmp_path, "(", MAX_NESTING - 1))
    assert code == 0 and err == ""
    assert "E_u = 0" in out


def sin_nest(depth: int, inner: str) -> str:
    return "sin(" * depth + inner + ")" * depth


@pytest.mark.parametrize("fmt", [[], ["--latex"], ["--json"]])
def test_a_function_nest_at_the_parser_limit_runs(tmp_path, capsys, fmt):
    # sin(...sin(1)...)*u_x^2 and sin(...sin(u)...)*u_x^2, nested to the
    # parser's limit; the chain rule on the u nest multiplies MAX_NESTING
    # cosines of nests of every depth below it.
    for inner in ("1", "u"):
        label = sin_nest(MAX_NESTING, inner)
        spec = tmp_path / f"nest_{inner}.vspec"
        spec.write_text(f"[bundle]\nbase = x\nfiber = u\n[define]\nlagrangian L = {label}*u_x^2 dx[1]\n")
        code, out, err = run(capsys, "el", str(spec), *fmt)
        assert code == 0 and err == ""
        assert "Traceback" not in out
        if fmt == ["--latex"]:
            label = r"\sin\left(" * MAX_NESTING + inner + r"\right)" * MAX_NESTING
        assert label in out
        expected = f"-2*u_xx*{label}"
        if inner == "u":
            expected += " - u_x^2*" + "*".join(f"cos({sin_nest(k, inner)})" for k in range(MAX_NESTING))
        if fmt == []:
            assert f"E_u = {expected}\n" in out
        if fmt == ["--json"]:
            assert json.loads(out)["components"][0]["expr"] == expected


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "el", "no_such_file.vspec")
    assert code == 1 and err


def test_output_determinism(capsys):
    path = str(SPECS / "dirichlet2d.vspec")
    code1, out1, _ = run(capsys, "el", path)
    code2, out2, _ = run(capsys, "el", path)
    assert code1 == code2 == 0
    assert out1 == out2


def test_check_without_paths(capsys):
    code, out, _ = run(capsys, "check", "--seed", "1")
    assert code == 0
    assert "summary:" in out
    lines = [ln for ln in out.splitlines() if "PASS" in ln or "FAIL" in ln]
    assert lines and all("PASS" in ln for ln in lines)


# -- usage errors and oracle flags: one `error:` line, exit 1 ---------------------


def one_line_error(code, out, err):
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err and "usage:" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["foo", "spec"],
        ["oracle", str(SPECS / "harmonic_oscillator.vspec"), "--grid", "abc"],
        ["el", str(SPECS / "harmonic_oscillator.vspec"), "--bogus"],
        ["check", "--seed", "x"],
        [],
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    one_line_error(code, out, err)
    if not argv:
        assert "command" in err and "paths" not in err  # the paths are optional


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_the_cached_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    # A stand-in for the property suite, whose one line names the seed the
    # parse gave it.
    monkeypatch.setattr(checks, "run_all", lambda seed, grids: [checks.CheckResult(f"seed {seed}", True, 1, "")])
    spec = str(SPECS / "harmonic_oscillator.vspec")
    sequence = [
        ["el", spec, "--latex"],
        ["el", "--json", spec],
        ["check", "--seed", "7"],
        ["el", spec, "--bogus"],
        ["check"],
        ["el", spec],
    ]
    alone = []
    for argv in sequence:
        cli._build_argparser.cache_clear()
        alone.append(run(capsys, *argv))
    cli._build_argparser.cache_clear()
    assert [run(capsys, *argv) for argv in sequence] == alone
    one_line_error(*alone[3])
    assert "seed 7  PASS" in alone[2][1] and "seed 0  PASS" in alone[4][1]

    # --help prints what a new parser prints when the intermixed parse
    # formats its usage on the spot.
    fresh = cli._build_argparser.__wrapped__()
    fresh.usage = None
    with pytest.raises(SystemExit):
        fresh.parse_intermixed_args(["--help"])
    expected = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == expected


ORACLE_1D = str(SPECS / "harmonic_oscillator.vspec")
ORACLE_2D = str(SPECS / "dirichlet2d.vspec")


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", ORACLE_1D, "--grid", "0"],
        ["oracle", ORACLE_1D, "--grid", str(oracle.MIN_GRID - 1)],
        ["oracle", ORACLE_1D, "--grid", str(oracle.MAX_GRID_POINTS + 1)],
        ["oracle", ORACLE_1D, "--grid", "100000000000"],
        ["oracle", ORACLE_2D, "--grid", "1001"],  # 1001^2 is just past 10^6
        ["oracle", ORACLE_1D, "--grid", "50", "--tolerance", "nan"],
        ["oracle", ORACLE_1D, "--grid", "50", "--tolerance", "inf"],
        ["oracle", ORACLE_1D, "--grid", "50", "--tolerance", "0"],
        ["oracle", ORACLE_1D, "--grid", "50", "--tolerance", "-0.001"],
        ["check", "--grid", "1001"],
        ["check", "--tolerance", "nan"],
    ],
)
def test_oracle_flags_are_validated(capsys, monkeypatch, argv):
    # rejected before any grid is sampled
    monkeypatch.setattr(oracle, "sample_section", None)
    monkeypatch.setattr(checks, "run_all", None)
    one_line_error(*run(capsys, *argv))


def test_oracle_grid_option_is_validated(tmp_path, capsys):
    spec = tmp_path / "small.vspec"
    spec.write_text(
        f"[bundle]\nbase = x\nfiber = u\n[define]\nlagrangian L = u_x^2 dx[1]\n[task]\noracle L grid={oracle.MIN_GRID - 1}\n"
    )
    one_line_error(*run(capsys, "oracle", str(spec)))


def test_oracle_bounds_are_inclusive(capsys):
    assert oracle.settings(1, oracle.MIN_GRID, 1e-300) == (oracle.MIN_GRID, 1e-300)
    assert oracle.settings(1, oracle.MAX_GRID_POINTS, None) == (oracle.MAX_GRID_POINTS, 1e-4)
    assert oracle.settings(2, 1000, None) == (1000, 1e-3)
    # the smallest grid runs; at 5 points the errors are large, so the check fails (exit 2), not the input,
    # and the library's boundary warning reaches stderr as one line
    code, out, err = run(capsys, "oracle", ORACLE_1D, "--grid", str(oracle.MIN_GRID))
    assert code == 2 and "oracle: FAILED" in out
    assert err == (
        "warning: variation does not vanish near the boundary; expect boundary terms\n"
        "error: a mathematical check failed\n"
    )


def test_oracle_passes_a_null_lagrangian(tmp_path, capsys, monkeypatch):
    # u_x dx[1] has zero Euler-Lagrange form: both sides of the action
    # identity sit at round-off, which must not read as a relative error of 1.
    spec = tmp_path / "null.vspec"
    spec.write_text("[bundle]\nbase = x\nfiber = u\n[define]\nlagrangian L = u_x dx[1]\n[task]\noracle L\n")
    code, out, err = run(capsys, "oracle", str(spec))
    assert code == 0 and "relative error 0.000e+00" in out and err == ""
    # The floor does not hide a wrong Euler-Lagrange form.
    real = oracle.euler_lagrange

    def doubled(lag):
        result = real(lag)
        return replace(result, components={k: 2 * c for k, c in result.components.items()})

    monkeypatch.setattr(oracle, "euler_lagrange", doubled)
    code, out, _ = run(capsys, "oracle", ORACLE_1D)
    assert code == 2 and "oracle: FAILED" in out


@pytest.mark.parametrize("command, flags", [("oracle", []), ("oracle", ["--json"]), ("check", []), ("check", ["--json"])])
def test_oracle_rejects_a_nan_error(tmp_path, capsys, command, flags):
    # ln(u - 2) is NaN on every sample of the default section: the oracle
    # cannot judge it, which is an input error, not a pass (max(0, nan) is 0).
    spec = tmp_path / "nan.vspec"
    spec.write_text("[bundle]\nbase = x\nfiber = u\n[define]\nlagrangian L = ln(u - 2)*u_x^2 dx[1]\n[task]\noracle L grid=50\n")
    code, out, err = run(capsys, command, str(spec), *flags)
    assert code == 1 and out == ""
    last = err.splitlines()[-1]
    assert last.startswith("error: ") and "total derivative on dx[1]" in last
    assert "Traceback" not in err


@pytest.mark.parametrize("density", ["ln(u - 2)", "exp(1000*u)"])
def test_oracle_domain_error_is_one_line(tmp_path, capsys, density):
    # NaN from ln, inf - inf from an overflowing exp: numpy warns on the
    # way, but the one diagnostic is the error line.
    spec = tmp_path / "domain.vspec"
    spec.write_text(f"[bundle]\nbase = x\nfiber = u\n[define]\nlagrangian L = {density}*u_x^2 dx[1]\n[task]\noracle L grid=50\n")
    code, out, err = run(capsys, "oracle", str(spec))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_oracle_rejects_base_dimension_3(tmp_path, capsys):
    spec = tmp_path / "cube.vspec"
    spec.write_text("[bundle]\nbase = x y z\nfiber = u\n[define]\nlagrangian L = u_x^2 dx[1,2,3]\n[task]\noracle L\n")
    one_line_error(*run(capsys, "oracle", str(spec)))


# -- a failing `natural` task carries its witness in every format -------------------


def failing_naturality(monkeypatch):
    names = ("x", "y")
    u = Expr.atom(Sym("u"))
    report = NaturalityReport(False, (MultiIndex(names, (1, 0)), (1,), u, 2 * u))
    monkeypatch.setattr(cli, "check_naturality", lambda phi, eta, k: report)


def test_natural_witness_in_text(capsys, monkeypatch):
    failing_naturality(monkeypatch)
    path = str(SPECS / "differential_demo.vspec")
    for flags in ([], ["--latex"]):
        code, out, err = run(capsys, "natural", path, *flags)
        assert code == 2 and err == "error: a mathematical check failed\n"
        witness = "witness: beta=(1,0) basis=(1,): u  vs  2*u\n"
        assert out == f"naturality k=1: FAILED\n{witness}naturality k=2: FAILED\n{witness}"


def test_natural_witness_in_json(capsys, monkeypatch):
    failing_naturality(monkeypatch)
    code, out, _ = run(capsys, "natural", str(SPECS / "differential_demo.vspec"), "--json")
    assert code == 2
    payloads = json.loads(out)
    assert [p["passed"] for p in payloads] == [False, False]
    assert payloads[0]["witness"] == {"beta": "(1,0)", "basis": [1], "lhs": "u", "rhs": "2*u"}


# -- a definition or task line takes only the options of its kind ------------------------

TOWER = "[bundle]\nbase = x\nfiber = p\nsecond = z\n[define]\n"


@pytest.mark.parametrize(
    "command, body, key, accepted",
    [
        ("fjet", "basemorphism f = x*p^2\n[task]\nfjet f kk=2\n", "kk", "k, r"),
        ("el", "lagrangian L bogus=7 = p_x^2 dx[1]\n", "bogus", "over"),
        ("el", "lagrangian L = p_x^2 dx[1]\n[task]\nel L frob=3\n", "frob", "none"),
        ("natural", "morphism phi r=0 s=0 t=1 = p*dp dx[1]\nvertical eta = p\n", "t", "over, r, s"),
        ("commute", "morphism B over=fiber r=0 s=0 = z*dz\nsection s over=fiber = x\nvariation w = z\n", "over", "none"),
        ("fjet", "basemorphism f r=9 = x*p^2\n", "r", "none"),
        ("oracle", "lagrangian L = p_x^2 dx[1]\n[task]\noracle L k=3\n", "k", "grid"),
    ],
)
def test_unknown_option_is_a_parse_error(tmp_path, capsys, command, body, key, accepted):
    spec = tmp_path / "options.vspec"
    spec.write_text(TOWER + body)
    # the offending line is the last that names the key
    lineno, line = [(i, line) for i, line in enumerate(spec.read_text().splitlines(), 1) if f" {key}=" in line][-1]
    code, out, err = run(capsys, command, str(spec))
    one_line_error(code, out, err)
    kind = line.split()[0]  # the definition kind or the command
    assert err == f"error: {lineno}:1: unknown option {key!r} for {kind} (accepted: {accepted})\n"


def test_task_options_are_filled_in(tmp_path, capsys):
    spec = tmp_path / "fjet.vspec"
    spec.write_text(TOWER + "basemorphism f = x*p^2\n[task]\nfjet f\nfjet f k=0\nfjet f r=0 k=2\n")
    code, out, _ = run(capsys, "fjet", str(spec), "--json")
    assert code == 0
    assert [(p["k"], p["r"]) for p in json.loads(out)] == [(1, 1), (0, 1), (2, 0)]
    # with no fjet line the only base morphism runs at the defaults
    spec.write_text(TOWER + "basemorphism f = x*p^2\n")
    code, out, _ = run(capsys, "fjet", str(spec), "--json")
    assert code == 0 and (json.loads(out)["k"], json.loads(out)["r"]) == (1, 1)


# -- a definition line takes one name; a task's name errors point at the task ------------

LINE = "[bundle]\nbase = x\nfiber = u\n[define]\n"


def test_a_definition_takes_one_name(tmp_path, capsys):
    spec = tmp_path / "names.vspec"
    spec.write_text(LINE + "lagrangian L junk more = u_x^2 dx[1]\n")
    code, out, err = run(capsys, "el", str(spec))
    one_line_error(code, out, err)
    assert err == "error: 5:1: a definition takes one name, found extra word(s) 'junk more'\n"


@pytest.mark.parametrize(
    "task, message",
    [("el M", "8:1: no definition named 'M'"), ("fed L", "8:1: 'L' is a lagrangian, expected a morphism")],
)
def test_task_name_errors_point_at_the_task_line(tmp_path, capsys, task, message):
    spec = tmp_path / "tasks.vspec"
    spec.write_text(LINE + "lagrangian L = u_x^2 dx[1]\n\n[task]\n" + task + "\n")
    code, out, err = run(capsys, task.split()[0], str(spec))
    one_line_error(code, out, err)
    assert err == f"error: {message}\n"


# -- declaration errors carry a position; lookups with no line name the file -----------


@pytest.mark.parametrize("options", ["r=1 s=2", "r=-1"])
def test_bad_morphism_orders_name_the_definition_line(tmp_path, capsys, options):
    spec = tmp_path / "orders.vspec"
    spec.write_text(LINE + "\n" + f"morphism L {options} = u dx[1]\n")
    code, out, err = run(capsys, "fed", str(spec))
    one_line_error(code, out, err)
    assert err == "error: 6:1: orders must satisfy 0 <= s <= r\n"


def test_a_definition_name_takes_no_equals_sign(tmp_path, capsys):
    spec = tmp_path / "option_name.vspec"
    spec.write_text(LINE + "lagrangian r=1 = u_x^2 dx[1]\n")
    code, out, err = run(capsys, "el", str(spec))
    one_line_error(code, out, err)
    assert err == "error: 5:1: a definition name takes no '=', found 'r=1'\n"


def test_a_file_without_the_default_definition_is_named(tmp_path, capsys):
    good, bad = str(SPECS / "harmonic_oscillator.vspec"), tmp_path / "no_lagrangian.vspec"
    bad.write_text(LINE + "morphism L r=1 = u dx[1]\n")
    code, out, err = run(capsys, "el", str(bad))
    one_line_error(code, out, err)
    assert err == f"error: {bad}: expected exactly one lagrangian definition, found 0\n"
    code, out, err = run(capsys, "el", good, str(bad))
    assert code == 1 and out.startswith("E_u = ")
    assert err == f"error: {bad}: expected exactly one lagrangian definition, found 0\n"


@pytest.mark.parametrize("command", ["el", "check"])
def test_a_parse_error_in_a_multi_file_run_names_its_file(tmp_path, capsys, command):
    good, bad = str(SPECS / "harmonic_oscillator.vspec"), tmp_path / "bad.vspec"
    bad.write_text(LINE + "\nlagrangian L junk = u_x^2 dx[1]\n")
    message = "6:1: a definition takes one name, found extra word(s) 'junk'"
    code, out, err = run(capsys, command, good, str(bad))
    one_line_error(code, out, err)
    assert err == f"error: {bad}:{message}\n"
    code, out, err = run(capsys, command, str(bad))  # one file: the position alone
    one_line_error(code, out, err)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["el", "check"])
def test_a_task_line_error_in_a_multi_file_run_names_its_file(tmp_path, capsys, command):
    good, bad = str(SPECS / "harmonic_oscillator.vspec"), tmp_path / "tasks.vspec"
    bad.write_text(LINE + "lagrangian L = u_x^2 dx[1]\n\n[task]\nel M\n")
    code, out, err = run(capsys, command, good, str(bad))
    assert code == 1 and err == f"error: {bad}:8:1: no definition named 'M'\n"


def test_flags_may_come_before_between_and_after_the_files(capsys):
    a, b = str(SPECS / "harmonic_oscillator.vspec"), str(SPECS / "dirichlet2d.vspec")
    after = run(capsys, "el", a, b, "--json")
    assert after[0] == 0 and after[2] == ""
    assert run(capsys, "el", "--json", a, b) == after
    assert run(capsys, "el", a, "--json", b) == after
    code, out, err = run(capsys, "check", "--seed", "3", a)
    assert code == 0 and err == ""
    assert f"{a}: el L" in out and "summary:" in out
    one_line_error(*run(capsys, "el", "--latex", a, "--json"))


def test_latex_and_json_are_exclusive(capsys):
    code, out, err = run(capsys, "el", str(SPECS / "harmonic_oscillator.vspec"), "--latex", "--json")
    one_line_error(code, out, err)
    assert "--latex" in err and "--json" in err
