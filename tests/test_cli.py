import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from wedgelab import cli
from wedgelab.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, load_case_config, main

PI = math.pi

BASE_CONFIG = """\
[geometry]
theta_plus = 2.3561944901923448
theta_minus = -0.7853981633974483
radius = 1.0
h = 0.2
mu = 1.0

[coefficient]
gamma = 0.8

[data]
phi = exact_trace

[output]
directory = {outdir}
formats = csv,svg
"""


def write_config(tmp_path, name="case.cfg", outdir=None, text=None):
    outdir = outdir or (tmp_path / "out")
    cfg = tmp_path / name
    cfg.write_text((text or BASE_CONFIG).format(outdir=outdir))
    return cfg, outdir


def files_under(root):
    """Every file below ``root`` with its bytes."""
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestExactCommand:
    def test_straight_wall_jump(self, capsys):
        code = main(
            [
                "exact",
                "--gamma",
                "0.8",
                "--theta-plus",
                "2.3561945",
                "--theta-minus",
                "-0.7853982",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        a0 = float(next(l for l in out.splitlines() if l.startswith("a0 = ")).split("=")[1])
        assert a0 == pytest.approx(4.23607, abs=1e-4)

    def test_continuous_coefficient(self, capsys):
        code = main(
            ["exact", "--gamma", "1.0", "--theta-plus", "2.3561945", "--theta-minus", "-0.7853982"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        a0 = float(next(l for l in out.splitlines() if l.startswith("a0 = ")).split("=")[1])
        assert a0 == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_angles_nonzero_exit(self, capsys):
        code = main(
            ["exact", "--gamma", "2.0", "--theta-plus", "0.7853981633974483",
             "--theta-minus", "-0.7853981633974483"]
        )
        # the given gamma is out of range for the wedge: a usage error
        assert code == EXIT_USAGE
        assert "degenerate" in capsys.readouterr().err.lower()

    def test_degrees_flag(self, capsys):
        code = main(
            ["exact", "--gamma", "0.8", "--theta-plus", "135", "--theta-minus", "-45", "--degrees"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        a0 = float(next(l for l in out.splitlines() if l.startswith("a0 = ")).split("=")[1])
        assert a0 == pytest.approx(2 + math.sqrt(5), abs=1e-6)

    def test_field_csv_export(self, tmp_path, capsys):
        out_csv = tmp_path / "field.csv"
        code = main(
            ["exact", "--gamma", "0.8", "--theta-plus", "2.3561944901923448",
             "--theta-minus", "-0.7853981633974483", "--field-csv", str(out_csv)]
        )
        assert code == EXIT_OK
        from wedgelab.norms import read_sampled_field_csv

        field = read_sampled_field_csv(out_csv)
        assert field.n > 100
        assert field.gradients is not None

    def test_field_csv_refuses_overwrite_without_force(self, tmp_path, capsys):
        out_csv = tmp_path / "field.csv"
        angles = ["--theta-plus", "2.3561944901923448", "--theta-minus", "-0.7853981633974483"]
        assert main(["exact", "--gamma", "0.8", *angles, "--field-csv", str(out_csv)]) == EXIT_OK
        first = out_csv.read_bytes()
        capsys.readouterr()
        assert main(["exact", "--gamma", "0.9", *angles, "--field-csv", str(out_csv)]) == EXIT_USAGE
        assert "force" in capsys.readouterr().err
        assert out_csv.read_bytes() == first
        assert main(["exact", "--gamma", "0.9", *angles, "--field-csv", str(out_csv), "--force"]) == EXIT_OK
        fresh = tmp_path / "fresh.csv"
        assert main(["exact", "--gamma", "0.9", *angles, "--field-csv", str(fresh)]) == EXIT_OK
        assert out_csv.read_bytes() == fresh.read_bytes() != first

    def test_field_csv_on_a_directory_is_a_usage_error(self, tmp_path, capsys):
        angles = ["--theta-plus", "2.3561944901923448", "--theta-minus", "-0.7853981633974483"]
        assert main(["exact", "--gamma", "0.8", *angles, "--field-csv", str(tmp_path), "--force"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: refusing to write {tmp_path}: it is a directory\n"
        assert files_under(tmp_path) == {}

    def test_field_csv_regions_follow_wedge_angle(self, tmp_path, capsys):
        # the upper wall at 5pi/4 lies below the x-axis, so the sign of y
        # is not the side there
        from wedgelab.geometry import make_wedge, wedge_angles
        from wedgelab.norms import read_sampled_field_csv

        out_csv = tmp_path / "field.csv"
        code = main(
            ["exact", "--gamma", "0.6", "--theta-plus", repr(5 * math.pi / 4),
             "--theta-minus", repr(-math.pi / 4), "--field-csv", str(out_csv)]
        )
        assert code == EXIT_OK
        field = read_sampled_field_csv(out_csv)
        w = make_wedge(-math.pi / 4, 5 * math.pi / 4)
        side = wedge_angles(w, field.points[:, 0], field.points[:, 1])
        assert np.any(field.points[:, 1] < 0.0) and np.any(side > math.pi)
        assert np.array_equal(field.regions, np.where(side >= 0.0, 1, -1))


class TestGammaCommand:
    def test_round_trip(self, capsys):
        code = main(
            ["gamma", "--a0", "4.2360679774997896", "--theta-plus", "2.3561944901923448",
             "--theta-minus", "-0.7853981633974483"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        g = float(next(l for l in out.splitlines() if l.startswith("gamma = ")).split("=")[1])
        assert g == pytest.approx(0.8, abs=1e-6)

    def test_symmetric_wedge(self, capsys):
        code = main(
            ["gamma", "--a0", "7.3", "--theta-plus", "1.0471975511965976",
             "--theta-minus", "-1.0471975511965976"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        g = float(next(l for l in out.splitlines() if l.startswith("gamma = ")).split("=")[1])
        assert g == pytest.approx(1.5, abs=1e-6)

    def test_no_sign_change_exit(self, capsys):
        code = main(
            ["gamma", "--a0", "4.236", "--theta-plus", "2.3561944901923448",
             "--theta-minus", "-0.7853981633974483", "--bracket-lo", "0.05",
             "--bracket-hi", "0.1"]
        )
        assert code == EXIT_NUMERICAL

    @pytest.mark.parametrize("flag", ["--bracket-lo", "--bracket-hi"])
    def test_half_bracket_is_usage_error(self, flag, capsys):
        code = main(
            ["gamma", "--a0", "4.236", "--theta-plus", "2.3561944901923448",
             "--theta-minus", "-0.7853981633974483", flag, "0.05"]
        )
        assert code == EXIT_USAGE
        assert "gamma = " not in capsys.readouterr().out

    def test_zero_bracket_end_reaches_root_finder(self, capsys):
        # (0, 0.1) breaks 0 < lo < hi: a usage error, caught before the scan
        code = main(
            ["gamma", "--a0", "4.236", "--theta-plus", "2.3561944901923448",
             "--theta-minus", "-0.7853981633974483", "--bracket-lo", "0",
             "--bracket-hi", "0.1"]
        )
        assert code == EXIT_USAGE
        assert "gamma = " not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "lo, hi", [("nan", "1"), ("0.1", "nan"), ("0.1", "inf"), ("-1", "1"), ("3", "1"), ("0.5", "0.5")]
    )
    def test_bad_bracket_is_usage_error(self, lo, hi, capsys):
        code = main(
            ["gamma", "--a0", "4.236", "--theta-plus", "2.3561944901923448",
             "--theta-minus", "-0.7853981633974483", "--bracket-lo", lo, "--bracket-hi", hi]
        )
        assert code == EXIT_USAGE
        assert "gamma = " not in capsys.readouterr().out


class TestCorrectorCommand:
    def test_hand_solved_case(self, capsys):
        code = main(
            ["corrector", "--c-plus", "1.0", "--c-minus", "0.0", "--a0", "2.0",
             "--theta-plus", "0.7853981633974483", "--theta-minus", "-0.7853981633974483"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        a_star = float(next(l for l in out.splitlines() if l.startswith("a_star")).split("=")[1])
        assert a_star == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-12)

    @pytest.mark.parametrize("c_plus, c_minus", [("nan", "0"), ("inf", "0"), ("1", "nan"), ("1", "-inf")])
    def test_nonfinite_wall_derivative_is_usage_error(self, capsys, c_plus, c_minus):
        code = main(
            ["corrector", f"--c-plus={c_plus}", f"--c-minus={c_minus}", "--a0", "2.0",
             "--theta-plus", "0.7853981633974483", "--theta-minus", "-0.7853981633974483"]
        )
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE and "finite" in err and "a_star" not in out

    def test_singular_system_exit(self, capsys):
        # continuous coefficient on the straight-wall wedge: tangential data
        # cannot determine the normal derivative
        code = main(
            ["corrector", "--c-plus", "1.0", "--c-minus", "0.0", "--a0", "1.0",
             "--theta-plus", "2.3561944901923448", "--theta-minus", "-0.7853981633974483"]
        )
        assert code == EXIT_NUMERICAL


@pytest.mark.parametrize(
    "argv",
    [
        ["corrector", "--c-plus", "1", "--c-minus", "0", "--a0", "-2",
         "--theta-plus", "2.35619449", "--theta-minus", "-0.78539816"],
        ["exact", "--gamma", "-1", "--theta-plus", "2.35619449", "--theta-minus", "-0.78539816"],
        ["exact", "--gamma", "nan", "--theta-plus", "2.35619449", "--theta-minus", "-0.78539816"],
        ["gamma", "--a0", "-1", "--theta-plus", "2.35619449", "--theta-minus", "-0.78539816"],
        ["gamma", "--a0", "nan", "--theta-plus", "2.35619449", "--theta-minus", "-0.78539816"],
    ],
    ids=["corrector-a0-negative", "exact-gamma-negative", "exact-gamma-nan",
         "gamma-a0-negative", "gamma-a0-nan"],
)
def test_nonpositive_jump_or_exponent_is_usage_error(argv, capsys):
    assert main(argv) == EXIT_USAGE
    assert "finite positive" in capsys.readouterr().err


class TestSolveCommand:
    def test_writes_solution_and_manifest(self, tmp_path, capsys):
        cfg, outdir = write_config(tmp_path)
        assert main(["solve", str(cfg)]) == EXIT_OK
        assert (outdir / "solution.csv").exists()
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert "solution.csv" in manifest["files"]
        assert manifest["config_hash"]
        header = (outdir / "solution.csv").read_text().splitlines()[0]
        assert header == "x,y,region,u,gx,gy"

    def test_residual_history_on_demand(self, tmp_path, capsys):
        cfg, outdir = write_config(tmp_path)
        assert main(["solve", str(cfg), "--residual-csv", "residuals.csv"]) == EXIT_OK
        lines = (outdir / "residuals.csv").read_text().splitlines()
        assert lines[0] == "iteration,relative_residual"
        assert len(lines) > 2
        residuals = [float(l.split(",")[1]) for l in lines[1:]]
        assert residuals[-1] <= 1e-10

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        cfg, outdir = write_config(tmp_path)
        assert main(["solve", str(cfg)]) == EXIT_OK
        assert main(["solve", str(cfg)]) == EXIT_USAGE
        assert "force" in capsys.readouterr().err

    def test_deterministic_rerun(self, tmp_path, capsys):
        cfg, outdir = write_config(tmp_path)
        assert main(["solve", str(cfg)]) == EXIT_OK
        first = (outdir / "solution.csv").read_bytes()
        manifest = (outdir / "manifest.json").read_bytes()
        assert main(["solve", str(cfg), "--force"]) == EXIT_OK
        assert (outdir / "solution.csv").read_bytes() == first
        assert (outdir / "manifest.json").read_bytes() == manifest

    def test_prints_the_preconditioner(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path)
        assert main(["solve", str(cfg)]) == EXIT_OK
        assert "preconditioner = line" in capsys.readouterr().out.splitlines()

    def test_prints_levels_and_true_residual(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path)
        assert main(["solve", str(cfg)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        at = lines.index("preconditioner = line")
        assert lines[at + 1] == "levels = 1"
        key, value = lines[at + 2].split(" = ")
        assert key == "true_residual" and 0.0 <= float(value) <= 1e-9

    def test_refuses_an_earlier_commands_manifest_without_force(self, tmp_path, capsys):
        cfg, outdir = write_config(tmp_path)
        assert main(["solve", str(cfg)]) == EXIT_OK
        first = (outdir / "manifest.json").read_bytes()
        assert main(["convergence", str(cfg), "--levels", "1"]) == EXIT_USAGE
        assert "manifest.json" in capsys.readouterr().err
        assert not (outdir / "convergence.csv").exists()
        assert (outdir / "manifest.json").read_bytes() == first
        assert main(["convergence", str(cfg), "--levels", "1", "--force"]) == EXIT_OK
        assert "convergence.csv" in json.loads((outdir / "manifest.json").read_text())["files"]

    def test_residual_csv_cannot_be_the_manifest(self, tmp_path, capsys):
        cfg, outdir = write_config(tmp_path)
        assert main(["solve", str(cfg), "--residual-csv", "manifest.json"]) == EXIT_USAGE
        assert "manifest.json" in capsys.readouterr().err
        assert not (outdir / "solution.csv").exists()

    def test_residual_csv_cannot_replace_the_solution(self, tmp_path, capsys):
        cfg, outdir = write_config(tmp_path)
        assert main(["solve", str(cfg)]) == EXIT_OK
        first = (outdir / "solution.csv").read_bytes()
        assert main(["solve", str(cfg), "--residual-csv", "solution.csv", "--force"]) == EXIT_USAGE
        assert "solution.csv" in capsys.readouterr().err
        assert (outdir / "solution.csv").read_bytes() == first

    @pytest.mark.parametrize("earlier_run", [False, True])
    @pytest.mark.parametrize("name", ["../escaped.csv", "sub/x.csv", "", ".", "..", "ABSOLUTE"])
    def test_residual_csv_must_be_a_plain_file_name(self, tmp_path, capsys, name, earlier_run):
        cfg, outdir = write_config(tmp_path)
        name = str(tmp_path / "abs.csv") if name == "ABSOLUTE" else name
        if earlier_run:
            assert main(["solve", str(cfg)]) == EXIT_OK
            capsys.readouterr()
        before = files_under(tmp_path)
        assert main(["solve", str(cfg), "--residual-csv", name, "--force"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: output name {name!r} is not a plain file name\n"
        assert files_under(tmp_path) == before
        assert earlier_run or not outdir.exists()

    def test_output_directory_on_a_file_is_a_usage_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        cfg, _ = write_config(tmp_path, outdir=taken)
        before = files_under(tmp_path)
        assert main(["solve", str(cfg)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(taken) in captured.err
        assert files_under(tmp_path) == before


class TestExactSolutionAttached:
    """Error lines appear only for data whose exact solution is known."""

    def _solve_output(self, tmp_path, capsys, replacements):
        text = BASE_CONFIG
        for old, new in replacements:
            text = text.replace(old, new)
        cfg, _ = write_config(tmp_path, text=text)
        assert main(["solve", str(cfg)]) == EXIT_OK
        return capsys.readouterr().out

    @pytest.mark.parametrize(
        "replacements",
        [
            [],
            [("gamma = 0.8", "a0 = 1.0"), ("phi = exact_trace", "phi = sin\nh = manufactured_sin")],
        ],
        ids=["exact_trace", "manufactured_sin"],
    )
    def test_known_solution_reports_errors(self, tmp_path, capsys, replacements):
        assert "L2 = " in self._solve_output(tmp_path, capsys, replacements)

    @pytest.mark.parametrize(
        "replacements",
        [
            [("gamma = 0.8", "a0 = 3.0"), ("phi = exact_trace", "phi = sin\nh = manufactured_sin")],
            [("phi = exact_trace", "phi = sin\nh = manufactured_sin\ng = poly: 1")],
            [("phi = exact_trace", "phi = exact_trace\nh = poly: 1")],
            [("phi = exact_trace", "phi = exact_trace\ng = poly: 0 1")],
        ],
        ids=["sin_with_jump", "sin_with_g", "exact_trace_with_h", "exact_trace_with_g"],
    )
    def test_unsolved_data_reports_no_errors(self, tmp_path, capsys, replacements):
        assert "L2 = " not in self._solve_output(tmp_path, capsys, replacements)

    def test_convergence_without_solution_writes_nan_errors(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("gamma = 0.8", "a0 = 3.0").replace(
            "phi = exact_trace", "phi = sin\nh = manufactured_sin"
        )
        cfg, outdir = write_config(tmp_path, text=text)
        assert main(["convergence", str(cfg), "--levels", "2"]) == EXIT_OK
        assert "rate" not in capsys.readouterr().out
        for line in (outdir / "convergence.csv").read_text().splitlines()[1:]:
            h, ndof, l2, bh1, linf, flux = line.split(",")
            assert all(math.isnan(float(v)) for v in (l2, bh1, linf))
            assert math.isfinite(float(flux))


class TestConvergenceCommand:
    @pytest.mark.parametrize("levels", ["0", "-2"])
    def test_levels_below_one_rejected(self, tmp_path, capsys, levels):
        cfg, outdir = write_config(tmp_path)
        assert main(["convergence", str(cfg), "--levels", levels]) == EXIT_USAGE
        assert "--levels" in capsys.readouterr().err
        assert not outdir.exists()

    def test_csv_and_svg(self, tmp_path, capsys):
        cfg, outdir = write_config(tmp_path)
        assert main(["convergence", str(cfg), "--levels", "2"]) == EXIT_OK
        lines = (outdir / "convergence.csv").read_text().splitlines()
        assert lines[0] == "h,ndof,L2,brokenH1,Linf,flux_jump"
        assert len(lines) == 3
        svg = outdir / "convergence.svg"
        assert svg.exists()
        root = ET.fromstring(svg.read_text())
        assert root.tag.endswith("svg")

    def test_manufactured_rates_printed(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("gamma = 0.8", "a0 = 1.0").replace(
            "phi = exact_trace", "phi = sin\nh = manufactured_sin"
        )
        cfg, outdir = write_config(tmp_path, text=text)
        assert main(["convergence", str(cfg), "--levels", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        rate = float(next(l for l in out.splitlines() if l.startswith("L2_rate")).split("=")[1])
        assert 1.5 < rate < 2.5


class TestFitCommand:
    def test_fit_outputs(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("h = 0.2", "h = 0.00625").replace("mu = 1.0", "mu = 0.8")
        cfg, outdir = write_config(tmp_path, text=text)
        assert main(["fit", str(cfg)]) == EXIT_OK
        out = capsys.readouterr().out
        beta = float(next(l for l in out.splitlines() if l.startswith("beta")).split("=")[1])
        assert beta == pytest.approx(0.8, abs=0.05)
        lines = (outdir / "fit.csv").read_text().splitlines()
        assert lines[0] == "r,sup_abs_v"
        summary = (outdir / "fit_summary.csv").read_text().splitlines()
        assert summary[0] == "beta,intercept,r2"

    @pytest.mark.parametrize("h, reason", [("0.2", "no admissible fit window"), ("0.02", "decade")])
    def test_inadmissible_window_is_a_usage_error(self, tmp_path, capsys, h, reason):
        cfg, outdir = write_config(tmp_path, text=BASE_CONFIG.replace("h = 0.2", f"h = {h}"))
        assert main(["fit", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and reason in err
        assert not (outdir / "fit.csv").exists()


class TestNormsCommand:
    def test_norms_on_solution_csv(self, tmp_path, capsys):
        cfg, outdir = write_config(tmp_path)
        assert main(["solve", str(cfg)]) == EXIT_OK
        capsys.readouterr()
        out_csv = tmp_path / "norms.csv"
        code = main(
            ["norms", str(outdir / "solution.csv"), "--k", "1", "--alpha", "0.5",
             "--tau", "-0.8", "--output", str(out_csv)]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.splitlines()
        assert any(l.startswith("total = ") for l in lines)
        at = next(i for i, l in enumerate(lines) if l.startswith("pairs_evaluated = "))
        assert lines[at + 1].startswith("node_pairs_pruned = ")
        assert out_csv.exists()

    def test_existing_output_refused_before_the_scan(self, tmp_path, capsys):
        field_csv, out_csv = tmp_path / "f.csv", tmp_path / "out.csv"
        assert main(["exact", "--gamma", "0.8", "--theta-plus", "135", "--theta-minus", "-45",
                     "--degrees", "--field-csv", str(field_csv)]) == EXIT_OK
        out_csv.write_text("kept\n")
        capsys.readouterr()
        assert main(["norms", str(field_csv), "--output", str(out_csv)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: refusing to overwrite {out_csv} (pass --force)\n"
        assert out_csv.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "row", ["0.5,0.5,+,1.0,nan,0.0", "inf,0.5,+,1.0,0.0,0.0"], ids=["nan_gradient", "inf_coordinate"]
    )
    def test_non_finite_sample_is_a_usage_error(self, tmp_path, capsys, row):
        path = tmp_path / "field.csv"
        rows = ["0.1,0.2,+,1.0,0.0,0.0", "0.3,-0.2,-,2.0,1.0,0.0", "0.7,0.1,+,0.5,0.0,1.0", row]
        path.write_text("x,y,region,value,gx,gy\n" + "\n".join(rows) + "\n")
        assert main(["norms", str(path), "--k", "1", "--alpha", "0.5"]) == EXIT_USAGE
        assert "finite" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "row", ["1,0", "1,abc,+,2", "1,0,q,2"], ids=["short_row", "non_numeric_cell", "unknown_region"]
    )
    def test_malformed_row_is_a_usage_error(self, tmp_path, capsys, row):
        path = tmp_path / "field.csv"
        path.write_text("x,y,region,value\n0.1,0.2,+,1.0\n0.3,-0.2,-,2.0\n" + row + "\n")
        assert main(["norms", str(path)]) == EXIT_USAGE
        assert "line 4" in capsys.readouterr().err


class TestOutOfMemory:
    def test_memory_error_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 234. GiB for an array")

        monkeypatch.setattr(cli, "solve_problem", no_memory)
        cfg, outdir = write_config(tmp_path)
        assert main(["solve", str(cfg)]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: out of memory: Unable to allocate 234. GiB for an array\n"
        assert not (outdir / "solution.csv").exists()


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("mu = 1.0", "mu = 1.0\nbogus = 1")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text.format(outdir=tmp_path / "o"))
        assert main(["solve", str(cfg)]) == EXIT_USAGE
        assert "unknown key 'bogus'" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[geometry]\ntheta_plus = 1.0\ntheta_minus = -1.0\n[junk]\nx = 1\n")
        assert main(["solve", str(cfg)]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "default, anchor",
        [("radius = 2.0", "[geometry]"), ("mu = 0.5", "[data]")],
        ids=["above_geometry", "next_to_data"],
    )
    def test_default_section_is_unknown(self, tmp_path, capsys, default, anchor):
        # configparser would copy [DEFAULT] keys into every section
        text = BASE_CONFIG.replace(anchor, f"[DEFAULT]\n{default}\n\n{anchor}")
        cfg, outdir = write_config(tmp_path, text=text)
        assert main(["solve", str(cfg)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown config section [DEFAULT]\n"
        assert not outdir.exists()

    def test_corrupted_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("theta_plus 1.0 no sections")
        assert main(["solve", str(cfg)]) == EXIT_USAGE

    def test_non_numeric_value(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[geometry]\ntheta_plus = fast\ntheta_minus = -1.0\n")
        assert main(["solve", str(cfg)]) == EXIT_USAGE

    def test_gamma_and_a0_together_rejected(self, tmp_path, capsys):
        # the coefficient would follow a0 and the exact solution gamma
        text = BASE_CONFIG.replace("gamma = 0.8", "gamma = 0.8\na0 = 2.0")
        cfg, outdir = write_config(tmp_path, text=text)
        assert main(["solve", str(cfg)]) == EXIT_USAGE
        assert "either gamma or a0" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("key", ["alpha", "beta"])
    def test_analysis_exponents_are_unknown_keys(self, tmp_path, capsys, key):
        text = BASE_CONFIG.replace("[output]", f"[analysis]\n{key} = 0.5\n\n[output]")
        cfg, _ = write_config(tmp_path, text=text)
        assert main(["solve", str(cfg)]) == EXIT_USAGE
        assert f"unknown key {key!r}" in capsys.readouterr().err

    def test_unknown_format_rejected(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path, text=BASE_CONFIG.replace("csv,svg", "csv,pdf"))
        assert main(["solve", str(cfg)]) == EXIT_USAGE
        assert "'pdf'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["n_rays = 2.5", "n_rays = 0", "n_rays = -4", "n_rays = many", "n_radii = 9.9", "n_radii = 3"]
    )
    def test_analysis_counts_must_be_integers_in_range(self, tmp_path, capsys, line):
        text = BASE_CONFIG.replace("[output]", f"[analysis]\n{line}\n\n[output]")
        cfg, outdir = write_config(tmp_path, text=text)
        assert main(["solve", str(cfg)]) == EXIT_USAGE
        assert line.split(" = ")[0] in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "edit, argv",
        [
            (("h = 0.2", "h = 5"), ["solve"]),
            (("h = 0.2", "h = nan"), ["solve"]),
            (("mu = 1.0", "mu = 1.5"), ["solve"]),
            (None, ["exact", "--gamma", "0.8", "--theta-plus", "-1", "--theta-minus", "-2"]),
        ],
        ids=["h_above_radius", "h_nan", "mu_above_one", "walls_below_zero"],
    )
    def test_geometry_parameter_errors_are_usage_errors(self, tmp_path, capsys, edit, argv):
        if edit:
            cfg, _ = write_config(tmp_path, text=BASE_CONFIG.replace(*edit))
            argv = [*argv, str(cfg)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "coefficient",
        ["a0 = -2", "a0 = nan", "gamma = nan", "gamma = 0", "lambda = nan", "a0 = 2\nLambda = 1.5"],
        ids=["a0_negative", "a0_nan", "gamma_nan", "gamma_zero", "lambda_nan", "a0_above_Lambda"],
    )
    def test_coefficient_out_of_range_is_usage_error(self, tmp_path, capsys, coefficient):
        cfg, outdir = write_config(tmp_path, text=BASE_CONFIG.replace("gamma = 0.8", coefficient))
        assert main(["solve", str(cfg)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "command, gamma", [("solve", "1.5"), ("solve", "2.0"), ("exact", "1.5")],
        ids=["solve_negative_jump", "solve_degenerate", "exact_negative_jump"],
    )
    def test_gamma_no_positive_jump_realizes_is_usage_error(self, tmp_path, capsys, command, gamma):
        # on the straight-wall wedge gamma = 1.5 forces a0 < 0 and gamma = 2
        # makes the wall conditions degenerate: the given gamma is at fault
        cfg, outdir = write_config(tmp_path, text=BASE_CONFIG.replace("gamma = 0.8", f"gamma = {gamma}"))
        argv = ["solve", str(cfg)] if command == "solve" else [
            "exact", "--gamma", gamma, "--theta-plus", str(3 * PI / 4), "--theta-minus", str(-PI / 4)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "data",
        ["phi = poly: 1 x", "phi = poly: 0 nan", "phi = exact_trace\nh = poly: 1 2 3 4 5 6 7",
         "phi = exact_trace\ng = poly: a"],
        ids=["phi_not_a_number", "phi_nan", "h_seven_numbers", "g_not_a_number"],
    )
    def test_malformed_poly_is_usage_error(self, tmp_path, capsys, data):
        cfg, outdir = write_config(tmp_path, text=BASE_CONFIG.replace("phi = exact_trace", data))
        assert main(["solve", str(cfg)]) == EXIT_USAGE
        assert "poly:" in capsys.readouterr().err
        assert not outdir.exists()

    def test_analysis_counts_read(self, tmp_path):
        text = BASE_CONFIG.replace("[output]", "[analysis]\nn_rays = 1\nn_radii = 4\n\n[output]")
        case = load_case_config(write_config(tmp_path, text=text)[0])
        assert (case.n_rays, case.n_radii) == (1, 4)

    def test_loader_round_trip(self, tmp_path):
        cfg, outdir = write_config(tmp_path)
        case = load_case_config(cfg)
        assert case.theta_plus == pytest.approx(3 * PI / 4)
        assert case.formats == ("csv", "svg")
        assert case.config_hash == load_case_config(cfg).config_hash


class TestVerifyCommand:
    def test_filter_runs_subset(self, capsys):
        # the filter reads the printed criterion name
        for text, name in (("coefficient", "1 coefficient reproduction"),
                           ("C1a", "3 C1a corner consistency")):
            code = main(["verify", "--filter", text])
            out = capsys.readouterr().out
            assert code == EXIT_OK
            assert f"PASS  {name}  (" in out
            assert "1/1 criteria passed" in out

    def test_filter_matching_nothing_is_usage_error(self, capsys):
        assert main(["verify", "--filter", "nomatch"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "'nomatch'" in captured.err and "criteria passed" not in captured.out
