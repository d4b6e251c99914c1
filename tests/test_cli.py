import json
from pathlib import Path

import pytest

from varjet.cli import main
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
