"""Command-line interface: subcommands, exit codes, output formats."""

import json
import warnings

import numpy as np
import pytest

from revquad.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProfileCommand:
    def test_eval_two_lines(self, capsys):
        code, out, err = run_cli(capsys, "profile", "--profile", "sphere", "--z", "0.6")
        assert code == 0
        assert out == "0.64\n-1.2\n"
        assert err == ""

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "--profile", "sphere", "--z", "0.6", "--json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj == {"z": 0.6, "value": 0.64, "derivative": -1.2}

    def test_list_presets(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "--list")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("sphere")

    def test_out_of_domain_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "profile", "--profile", "sphere", "--z", "2")
        assert code == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("z", ["nan", "-nan", "inf"])
    def test_non_finite_z_exits_2(self, capsys, z):
        code, out, err = run_cli(capsys, "profile", "--profile", "sphere", f"--z={z}")
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_missing_z_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "profile", "--profile", "sphere")
        assert code == 2
        assert "error:" in err

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "profile", "--profile", "wat:1", "--z", "0")
        assert code == 2
        assert "error:" in err


class TestSectionCommand:
    def test_csv_row_count(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "section", "--profile", "sphere",
            "--slope", "1", "--intercept", "0", "--samples", "64",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 128
        assert lines[0] == "y,z"
        assert lines[-1] == lines[1]
        zs = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
        assert zs.min() == pytest.approx(-(0.5**0.5), abs=1e-12)
        assert zs.max() == pytest.approx(0.5**0.5, abs=1e-12)

    def test_embedded_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "section", "--profile", "sphere",
            "--slope", "1", "--intercept", "0", "--samples", "64", "--embed",
        )
        assert code == 0
        assert out.splitlines()[0] == "x,y,z"

    def test_svg_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "section", "--profile", "sphere",
            "--slope", "1", "--intercept", "0", "--samples", "64",
            "--format", "svg",
        )
        assert code == 0
        assert out.startswith("<?xml")
        assert out.count("<polygon") == 2
        assert out.count("<circle") == 1

    def test_escape_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "section", "--profile", "cylinder:1,10",
            "--slope", "1", "--intercept", "9.8",
        )
        assert code == 2
        assert "does not close" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "loop.csv"
        code, out, _ = run_cli(
            capsys,
            "section", "--profile", "sphere",
            "--slope", "1", "--intercept", "0", "--samples", "64",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert len(target.read_text().splitlines()) == 128


class TestCenterCommand:
    def test_central_section(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "center", "--profile", "sphere",
            "--slope", "0.5", "--intercept", "0.3",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["central"] is True
        assert obj["center_z"] == pytest.approx(0.24, abs=1e-6)
        assert obj["center_y"] == 0.0

    def test_asymmetric_section_exits_1(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "center", "--profile", "poly:2,0,0,1;1",
            "--slope", "0.4", "--intercept", "0",
        )
        assert code == 1
        obj = json.loads(out)
        assert obj["central"] is False
        assert obj["asymmetry"] > 1e-3


    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-4"])
    def test_bad_tolerance_exits_2(self, capsys, tol):
        # an infinite tol would print "tolerance": Infinity, which is not JSON
        code, out, err = run_cli(
            capsys,
            "center", "--profile", "sphere",
            "--slope", "0.5", "--intercept", "0", f"--tol={tol}",
        )
        assert code == 2
        assert out == ""
        assert "tolerance" in err


class TestDetectCommand:
    def test_sphere_full_budget(self, capsys):
        code, out, _ = run_cli(capsys, "detect", "--profile", "sphere")
        assert code == 0
        obj = json.loads(out)
        assert obj["is_quadric"] is True
        assert obj["a"] == pytest.approx(-1.0, abs=1e-6)
        assert obj["b"] == pytest.approx(0.0, abs=1e-6)
        assert obj["c"] == pytest.approx(1.0, abs=1e-6)

    def test_non_quadric_exits_1(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "detect", "--profile", "poly:2,0,0,1;1",
            "--planes", "5", "--samples", "256",
        )
        assert code == 1
        obj = json.loads(out)
        assert obj["is_quadric"] is False
        assert obj["witness"]["asymmetry"] > 1e-3

    def test_bad_delta_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "detect", "--profile", "sphere", "--delta", "0.9"
        )
        assert code == 2
        assert "delta" in err

    def test_workers_below_one_is_usage_error(self, capsys):
        for value in ("0", "-2"):
            with pytest.raises(SystemExit) as exc:
                main(["detect", "--profile", "sphere", "--workers", value])
            assert exc.value.code == 2
            assert "--workers" in capsys.readouterr().err

    def test_deterministic_output(self, capsys):
        args = ("detect", "--profile", "sphere", "--planes", "5", "--samples", "256")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestReconstructCommand:
    def test_sphere_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "reconstruct", "--profile", "sphere", "--planes", "33"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "beta,zeta,fprime_reconstructed,fprime_analytic,abs_error"
        assert len(lines) == 34
        errs = [float(ln.split(",")[4]) for ln in lines[1:]]
        assert max(errs) <= 1e-3

    def test_cylinder_flat(self, capsys):
        code, out, _ = run_cli(
            capsys, "reconstruct", "--profile", "cylinder:1,10", "--planes", "9"
        )
        assert code == 0
        recs = [float(ln.split(",")[2]) for ln in out.splitlines()[1:]]
        assert max(abs(r) for r in recs) <= 1e-6

    def test_paraboloid_unit_slope(self, capsys):
        code, out, _ = run_cli(
            capsys, "reconstruct", "--profile", "paraboloid:2,1", "--planes", "9"
        )
        assert code == 0
        recs = [float(ln.split(",")[2]) for ln in out.splitlines()[1:]]
        assert all(abs(r - 1.0) <= 1e-3 for r in recs)

    def test_explicit_slope(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "reconstruct", "--profile", "sphere", "--planes", "9", "--slope", "0.3",
        )
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines()[1:]]
        for beta_s, zeta_s, rec_s, ana_s, err_s in rows:
            zeta = float(zeta_s)
            assert float(err_s) <= 1e-6
            assert zeta == pytest.approx(float(beta_s) / 1.09, abs=1e-5)

    def test_escape_exits_2(self, capsys):
        # the sweep starts at beta = -9.408 and slope 3 pushes that loop
        # past z = -10, so the command fails with a tagged tracing error
        code, _, err = run_cli(
            capsys,
            "reconstruct", "--profile", "cylinder:1,10",
            "--planes", "5", "--slope", "3.0", "--delta", "0.2",
        )
        assert code == 2
        assert "beta" in err


class TestMvtCommand:
    def test_quadratic(self, capsys):
        code, out, _ = run_cli(capsys, "mvt", "--poly", "1,2,3")
        assert code == 0
        assert out.endswith("quadratic\n")
        assert float(out.splitlines()[0].split()[-1]) <= 1e-12

    def test_cubic_residual_one(self, capsys):
        code, out, _ = run_cli(capsys, "mvt", "--poly", "0,0,0,1")
        assert code == 1
        assert out.endswith("not-quadratic\n")
        assert float(out.splitlines()[0].split()[-1]) == pytest.approx(1.0, rel=1e-12)

    def test_constant_is_degenerate_quadratic(self, capsys):
        code, out, _ = run_cli(capsys, "mvt", "--poly", "5")
        assert code == 0
        assert out.endswith("quadratic\n")

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "mvt", "--poly", "0,0,0,1", "--json")
        assert code == 1
        obj = json.loads(out)
        assert obj["verdict"] == "not-quadratic"
        assert obj["max_residual"] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("argv, expected", [
        (["--poly=0.3,-1.2,0.7,2.5,-0.4", "--grid", "5"],
         "max residual 4.1000000000000005\nnot-quadratic\n"),
        (["--poly=-2.5,0.75,3.25", "--grid", "7"],
         "max residual 5.329070518200751e-15\nquadratic\n"),
        (["--poly=1.5,0,-0.25,0,0.125,0.01", "--json"],
         '{\n  "max_residual": 0.6099999999999999,\n  "verdict": "not-quadratic"\n}\n'),
    ], ids=["quartic", "quadratic", "quintic-json"])
    def test_output_bytes(self, capsys, argv, expected):
        _, out, _ = run_cli(capsys, "mvt", *argv)
        assert out == expected

    def test_bad_poly_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "mvt", "--poly", "1,x,3")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("poly", ["nan", "1,nan,2", "1,inf", "-inf,0,1"])
    def test_non_finite_poly_exits_2(self, capsys, poly):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "mvt", f"--poly={poly}")
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("poly", ["0,0,0,1e308", "1e308,1e308,1e308"])
    def test_overflowing_poly_exits_2(self, capsys, poly):
        # finite coefficients whose values overflow give no residual to judge
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "mvt", f"--poly={poly}")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "overflows" in err
