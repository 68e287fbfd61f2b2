"""Command-line front end: determinism, artifacts, exit codes."""

import json
import os

import numpy as np
import pytest
import jsonschema

from subeq.cli import main, render_json, write_field_csv
from subeq.grid import Grid

SCHEMA_DIR = os.path.join(os.path.dirname(__import__("subeq").__file__),
                          "schemas")


def load_schema(name):
    with open(os.path.join(SCHEMA_DIR, name)) as fh:
        return json.load(fh)


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


class TestRenderJson:
    def test_sorted_keys_and_17g(self):
        s = render_json({"b": 1.0 / 3.0, "a": [1, 2.5]})
        assert s == '{"a":[1,2.5],"b":0.33333333333333331}'

    def test_non_finite_to_null(self):
        assert render_json({"x": float("nan"), "y": float("inf")}) \
            == '{"x":null,"y":null}'

    def test_numpy_scalars(self):
        assert render_json(np.float64(0.5)) == "0.5"
        assert render_json(np.int32(7)) == "7"
        assert render_json(np.bool_(True)) == "true"


class TestCheckCommand:
    def test_laplace_passes(self, tmp_path):
        code, out = run(tmp_path, "check", "--subeq", "laplace:n=2",
                        "--trials", "500")
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["ok"] is True
        assert rep["axioms"]["P"]["violations"] == 0
        jsonschema.validate(rep, load_schema("report.schema.json"))

    def test_byte_identical_rerun(self, tmp_path):
        _, out1 = run(tmp_path, "check", "--subeq", "pcone:p=1.5:n=3",
                      "--trials", "300")
        first = out1.read_bytes()
        _, out2 = run(tmp_path, "check", "--subeq", "pcone:p=1.5:n=3",
                      "--trials", "300")
        assert out2.read_bytes() == first


class TestDualTest:
    def test_stock_pair_agrees(self, tmp_path):
        code, out = run(tmp_path, "dual-test", "--subeq",
                        "branch:real:k=1:n=3", "--trials", "2000")
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["against"] == "branch:real:k=3:n=3"
        assert rep["disagreements"] == 0

    def test_explicit_against(self, tmp_path):
        code, out = run(tmp_path, "dual-test", "--subeq", "laplace:n=2",
                        "--against", "laplace:n=2", "--trials", "1000")
        assert code == 0

    def test_missing_dual_is_config_error(self, tmp_path):
        code, out = run(tmp_path, "dual-test", "--subeq",
                        "pucci:lam=1:Lam=2:n=2", "--trials", "100")
        assert code == 3
        rep = json.loads(out.read_text())
        assert rep["status"] == "config_error"
        jsonschema.validate(rep, load_schema("report.schema.json"))


class TestMonoAndRiesz:
    def test_mono_pass(self, tmp_path):
        code, out = run(tmp_path, "mono-test", "--subeq", "laplace:n=2",
                        "--cone", "appb:case=1:n=2", "--trials", "1000")
        assert code == 0

    def test_riesz_pucci_value(self, tmp_path):
        code, out = run(tmp_path, "riesz", "--cone", "pucci:lam=1:Lam=2:n=3")
        assert code == 0
        rep = json.loads(out.read_text())
        assert abs(rep["p"] - 2.0) <= 1e-6
        assert rep["unbounded"] is False

    def test_riesz_flags_equal_config_route(self, tmp_path):
        _, out1 = run(tmp_path, "riesz", "--cone", "delta:d=1:n=3")
        cfg = tmp_path / "cfg.json"
        out2 = tmp_path / "report2.json"
        cfg.write_text(json.dumps({"command": "riesz", "cone": "delta:d=1:n=3",
                                   "out": str(out2)}))
        assert main(["--config", str(cfg)]) == 0
        assert out2.read_bytes() == out1.read_bytes()

    def test_config_schema_rejects_unknown_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "frobnicate"}))
        assert main(["--config", str(cfg)]) == 3


class TestGarding:
    def test_frozen_eigenvalues(self, tmp_path):
        code, out = run(tmp_path, "garding", "--poly", "sigma:2", "--n", "3",
                        "--matrix", "1,0,0;0,1,0;0,0,-1")
        assert code == 0
        rep = json.loads(out.read_text())
        assert np.allclose(rep["eigenvalues"], [-1.0 / 3.0, 1.0], atol=1e-9)

    def test_asymmetric_matrix_rejected(self, tmp_path):
        code, out = run(tmp_path, "garding", "--poly", "det", "--n", "2",
                        "--matrix", "1,2;0,1")
        assert code == 3

    def test_hyperbolicity_trials(self, tmp_path):
        code, out = run(tmp_path, "garding", "--poly", "det", "--n", "2",
                        "--matrix", "1,0;0,1", "--check-trials", "25")
        assert code == 0
        assert json.loads(out.read_text())["hyperbolicity"]["failures"] == 0


class TestConvexity:
    def test_ball_all_pass(self, tmp_path):
        csv = tmp_path / "conv.csv"
        code, out = run(tmp_path, "convexity", "--subeq",
                        "branch:real:k=1:n=2", "--domain", "ball:n=2",
                        "--points", "5", "--out-csv", str(csv))
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["passes"] == 5 and rep["failures"] == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0].startswith("x,y,lam=")
        assert len(lines) == 6

    def test_annulus_inner_wall_fails(self, tmp_path):
        code, out = run(tmp_path, "convexity", "--subeq",
                        "branch:real:k=1:n=2", "--domain",
                        "annulus:n=2:r_in=0.5:r_out=1", "--points", "8",
                        "--out-csv", str(tmp_path / "c.csv"))
        assert code == 2
        rep = json.loads(out.read_text())
        assert rep["failures"] > 0


class TestSolveFamily:
    def test_solve_writes_field_and_report(self, tmp_path):
        csv = tmp_path / "field.csv"
        code, out = run(tmp_path, "solve", "--subeq", "laplace",
                        "--bc", "x*x-y*y", "--m", "17",
                        "--out-field", str(csv))
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["report"]["converged"] is True
        assert rep["config"]["shape"] == [17, 17]
        assert "wall_time" not in rep["report"]
        jsonschema.validate(rep, load_schema("report.schema.json"))
        text = csv.read_text()
        lines = text.split("\n")
        assert lines[0] == "x,y,u"
        slabs = [s for s in text.split("\n\n") if s.strip()]
        assert len(slabs) == 17                       # one per leading index
        data = [l for l in lines[1:] if l.strip()]
        assert len(data) == 17 * 17

    def test_solve_deterministic_artifacts(self, tmp_path):
        csv1, csv2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        _, out1 = run(tmp_path, "solve", "--subeq", "laplace", "--bc",
                      "x*x-y*y", "--m", "9", "--out-field", str(csv1))
        b1, r1 = csv1.read_bytes(), out1.read_bytes()
        _, out2 = run(tmp_path, "solve", "--subeq", "laplace", "--bc",
                      "x*x-y*y", "--m", "9", "--out-field", str(csv2))
        assert csv2.read_bytes() == b1
        assert out2.read_bytes() == r1

    def test_solve_named_domain(self, tmp_path):
        code, out = run(tmp_path, "solve", "--subeq", "laplace", "--bc",
                        "x*x-y*y", "--domain", "ball:n=2", "--m", "21",
                        "--out-field", str(tmp_path / "f.csv"))
        assert code == 0

    def test_bad_expression_is_config_error(self, tmp_path):
        code, out = run(tmp_path, "solve", "--subeq", "laplace:n=2", "--bc",
                        "x +", "--m", "9",
                        "--out-field", str(tmp_path / "f.csv"))
        assert code == 3
        assert json.loads(out.read_text())["status"] == "config_error"

    def test_nan_obstacle_is_config_error(self, tmp_path):
        code, out = run(tmp_path, "obstacle", "--subeq", "laplace:n=2",
                        "--bc", "0", "--obstacle", "(x-0.5)^0.5", "--m", "17")
        assert code == 3
        rep = json.loads(out.read_text())
        assert rep["status"] == "config_error"
        assert rep["error"].startswith("obstacle g=nan at node ")

    def test_obstacle_and_bracket(self, tmp_path):
        code, _ = run(tmp_path, "obstacle", "--subeq", "laplace", "--bc",
                      "x*x-y*y", "--obstacle", "10", "--m", "9",
                      "--out-field", str(tmp_path / "f.csv"))
        assert code == 0
        code, out = run(tmp_path, "bracket", "--subeq", "laplace", "--bc",
                        "x*x-y*y", "--m", "17",
                        "--out-field", str(tmp_path / "U.csv"),
                        "--out-field-dual", str(tmp_path / "Ut.csv"))
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["bracket_ok"] is True
        assert (tmp_path / "Ut.csv").exists()


    @pytest.mark.parametrize("command, extra", [
        ("solve", []), ("obstacle", ["--obstacle", "10"]),
        ("bracket", ["--out-field-dual", "g.csv"])])
    def test_grid_commands_take_no_seed(self, tmp_path, capsys, command,
                                        extra):
        # a solve draws no samples: --seed is refused, and the report
        # carries no seed
        extra = [str(tmp_path / a) if a.endswith(".csv") else a
                 for a in extra]
        argv = [command, "--subeq", "laplace:n=2", "--bc", "x*x-y*y",
                "--m", "9", *extra, "--out-field", str(tmp_path / "f.csv")]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1", "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 3
        assert "--seed" in capsys.readouterr().err
        code, out = run(tmp_path, *argv)
        assert code == 0
        assert "seed" not in json.loads(out.read_text())


class TestFieldCsv:
    def test_one_dimensional_layout(self, tmp_path):
        g = Grid.regular([(0.0, 1.0)], 5)
        path = tmp_path / "f.csv"
        write_field_csv(str(path), g, np.arange(5.0))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x,u"
        assert lines[1] == "0,0"
        assert len(lines) == 6

    @staticmethod
    def oracle(grid, u):
        """The per-value writer: every coordinate and value through
        format(., ".17g"), "nan" for non-finite values, a blank line
        between leading-index slabs."""
        def f17(x):
            return format(float(x), ".17g") if np.isfinite(x) else "nan"

        pts = grid.points().reshape(grid.shape + (grid.n,))
        u = np.asarray(u, dtype=float).reshape(grid.shape)
        slabs = ["\n".join(",".join(f17(c) for c in row) + "," + f17(v)
                           for row, v in zip(pts[i].reshape(-1, grid.n),
                                             u[i].reshape(-1)))
                 for i in range(grid.shape[0])]
        sep = "\n\n" if grid.n > 1 else "\n"
        return ",".join("xyz"[:grid.n]) + ",u\n" + sep.join(slabs) + "\n"

    def check(self, tmp_path, grid, u):
        path = tmp_path / "f.csv"
        write_field_csv(str(path), grid, u)
        assert path.read_text() == self.oracle(grid, u)

    @pytest.mark.parametrize("n,m", [(1, 7), (2, 9), (3, 5)])
    def test_matches_per_value_writer(self, tmp_path, n, m):
        g = Grid.regular([(-1.2, 1.2)] * n, m)
        u = np.random.default_rng(n).standard_normal(g.shape) / 3.0
        self.check(tmp_path, g, u)

    def test_nan_outside_ball(self, tmp_path):
        from subeq.boundary import ball_domain
        g = Grid.regular([(-1.2, 1.2)] * 2, 17)
        pts = g.points()
        u = np.exp(pts[:, 0]) * np.cos(3.0 * pts[:, 1])
        u[ball_domain(2).rho_dom(pts) >= 0] = np.nan
        assert np.isnan(u).any() and not np.isnan(u).all()
        self.check(tmp_path, g, u.reshape(g.shape))

    def test_signed_zero_and_infinities(self, tmp_path):
        g = Grid.regular([(-1.2, 1.2)] * 2, 5)
        u = np.linspace(-1.0, 1.0, g.size()).reshape(g.shape)
        u[0, 1], u[2, 2], u[4, 3] = -0.0, np.inf, -np.inf
        self.check(tmp_path, g, u)
        text = (tmp_path / "f.csv").read_text()
        assert text.count(",nan\n") == 2
        assert "\n-1.2,-0.59999999999999998,-0\n" in text


class TestConfigErrors:
    def test_branch_without_kind(self, tmp_path):
        code, out = run(tmp_path, "check", "--subeq", "branch",
                        "--trials", "10")
        assert code == 3
        assert json.loads(out.read_text())["status"] == "config_error"

    def test_ellipsoid_domain(self, tmp_path):
        code, out = run(tmp_path, "convexity", "--subeq", "klap:k=inf:n=2",
                        "--domain", "ellipsoid:n=2",
                        "--out-csv", str(tmp_path / "c.csv"))
        assert code == 0
        assert json.loads(out.read_text())["passes"] == 20

    def test_ellipsoid_axes_must_match_dimension(self, tmp_path):
        code, out = run(tmp_path, "convexity", "--subeq", "klap:k=inf:n=2",
                        "--domain", "ellipsoid:n=2:axes=1,2,3",
                        "--out-csv", str(tmp_path / "c.csv"))
        assert code == 3
        assert json.loads(out.read_text())["status"] == "config_error"

    def test_usage_error_exits_3_without_report(self, tmp_path, capsys):
        # "-1,1" after --box is read as a flag: a usage error, not exit 2
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--subeq", "branch:real:k=1:n=2", "--bc", "x^2",
                  "--box", "-1,1", "--m", "9", "--out", str(out)])
        assert exc.value.code == 3
        assert "--box" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_box_with_equals(self, tmp_path):
        code, out = run(tmp_path, "solve", "--subeq", "branch:real:k=1:n=2",
                        "--bc", "x^2", "--box=-1,1", "--m", "9",
                        "--out-field", str(tmp_path / "f.csv"))
        assert code == 0
        assert json.loads(out.read_text())["config"]["h"] == 0.25

    @pytest.mark.parametrize("domain", [
        "ball:n=2:r=1", "ball:n=2:foo=3", "annulus:n=2:r_inner=0.5",
        "ellipsoid:n=2:axis=1,1", "star:n=2:amplitude=0.1",
    ])
    def test_unknown_named_domain_key(self, tmp_path, domain):
        code, out = run(tmp_path, "solve", "--subeq", "laplace", "--bc",
                        "x*x-y*y", "--domain", domain, "--m", "9",
                        "--out-field", str(tmp_path / "f.csv"))
        assert code == 3
        rep = json.loads(out.read_text())
        assert rep["status"] == "config_error"
        assert domain.rsplit(":", 1)[1].split("=")[0] in rep["error"]

    @pytest.mark.parametrize("domain, key", [
        ("ball:n=2:radius=nan", "radius"),
        ("annulus:n=2:r_in=nan", "r_in"),
    ])
    def test_nan_named_domain_number(self, tmp_path, domain, key):
        code, out = run(tmp_path, "convexity", "--subeq", "klap:k=1:n=2",
                        "--domain", domain,
                        "--out-csv", str(tmp_path / "c.csv"))
        assert code == 3
        rep = json.loads(out.read_text())
        assert rep["status"] == "config_error"
        assert f"parameter {key!r} is NaN" in rep["error"]

    def test_ball_radius(self, tmp_path):
        code, out = run(tmp_path, "convexity", "--subeq", "klap:k=inf:n=2",
                        "--domain", "ball:n=2:radius=0.5",
                        "--out-csv", str(tmp_path / "c.csv"))
        assert code == 0
        pts = [v["point"] for v in json.loads(out.read_text())["per_point"]]
        assert np.allclose(np.linalg.norm(pts, axis=1), 0.5, atol=1e-6)


    @pytest.mark.parametrize("argv, key", [
        (["check", "--subeq", "laplace:n=0"], "n"),
        (["check", "--subeq", "cy:n=0"], "n"),
        (["check", "--subeq", "klap:k=2:n=0"], "n"),
        (["dual-test", "--subeq", "laplace:n=0"], "n"),
        (["mono-test", "--subeq", "laplace:n=0", "--cone", "laplace:n=0"],
         "n"),
        (["riesz", "--cone", "laplace:n=0"], "n"),
        (["riesz", "--cone", "delta:d=nan:n=2"], "d"),
        (["check", "--subeq", "slag:c=nan:n=2"], "c"),
        (["check", "--subeq", "deltabranch:k=1:d=nan:n=2"], "d"),
        (["check", "--subeq", "appb:case=4:n=2:gamma=nan"], "gamma"),
    ])
    def test_catalog_names_refuse_n_below_1_and_nan(self, tmp_path, argv,
                                                     key):
        code, out = run(tmp_path, *argv)
        assert code == 3
        rep = json.loads(out.read_text())
        assert rep["status"] == "config_error"
        assert f"parameter {key!r}" in rep["error"]


class TestConfigValues:
    def test_values_starting_with_minus(self, tmp_path):
        # the box, the data and the lambda grid all start with '-'
        _, out1 = run(tmp_path, "solve", "--subeq", "branch:real:k=1:n=2",
                      "--bc=-x^2+2", "--box=-1,1", "--m", "9",
                      "--out-field", str(tmp_path / "f1.csv"))
        cfg = tmp_path / "cfg.json"
        out2 = tmp_path / "report2.json"
        cfg.write_text(json.dumps({
            "command": "solve", "subeq": "branch:real:k=1:n=2",
            "bc": "-x^2+2", "box": "-1,1", "m": 9, "out": str(out2),
            "out_field": str(tmp_path / "f2.csv")}))
        assert main(["--config", str(cfg)]) == 0
        assert out2.read_bytes() == out1.read_bytes()
        cfg.write_text(json.dumps({
            "command": "convexity", "subeq": "klap:k=inf:n=2",
            "domain": "ball:n=2", "lambda_grid": "-2,-1,0,1,2",
            "points": 4, "out": str(out2),
            "out_csv": str(tmp_path / "c.csv")}))
        assert main(["--config", str(cfg)]) == 0
        assert json.loads(out2.read_text())["lambda_grid"] == [-2, -1, 0, 1, 2]


def run_config(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return main(["--config", str(path)])


def as_config(command, *flags_and_values):
    return {"command": command,
            **{flag[2:].replace("-", "_"): val for flag, val
               in zip(flags_and_values[::2], flags_and_values[1::2])}}


# a base command line per command, and every range-checked flag with the
# values it must refuse: 0 and a negative, NaN and inf for the floats
BASE = {
    "check": ["--subeq", "laplace:n=2"],
    "dual-test": ["--subeq", "branch:real:k=1:n=3"],
    "mono-test": ["--subeq", "laplace:n=2", "--cone", "appb:case=1:n=2"],
    "riesz": ["--cone", "delta:d=1:n=3"],
    "convexity": ["--subeq", "klap:k=1:n=2", "--domain", "ball:n=2"],
    "solve": ["--subeq", "laplace:n=2", "--bc", "x"],
    "garding": ["--poly", "det", "--n", "1", "--matrix", "1"],
}
BAD_INT = ["0", "-1"]
BAD_FLOAT = ["0", "-1", "nan", "inf"]
BAD_VALUES = ([("riesz", "--seed", "-1"), ("check", "--seed", "-3"),
               ("garding", "--check-trials", "-1")]
              + [(c, "--trials", v) for c in ("check", "dual-test",
                                              "mono-test") for v in BAD_INT]
              + [("riesz", "--dirs", v) for v in BAD_INT]
              + [("convexity", "--points", v) for v in BAD_INT]
              + [("solve", "--max-sweeps", v) for v in BAD_INT]
              + [("riesz", "--tol", v) for v in BAD_FLOAT]
              + [("solve", "--h", v) for v in BAD_FLOAT]
              + [("convexity", "--t-max", v) for v in BAD_FLOAT + ["1"]])


class TestOneValidator:
    """Flags and config keys pass through the same parser: a bad value is
    a usage error on both routes, before any report is written."""

    @pytest.mark.parametrize("command,flag,value", BAD_VALUES)
    def test_bad_value_exits_3_on_both_routes(self, tmp_path, capsys,
                                              command, flag, value):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main([command, *BASE[command], f"{flag}={value}",
                  "--out", str(out)])
        assert exc.value.code == 3
        assert flag in capsys.readouterr().err
        # a JSON number, as a config would carry it
        cfg = as_config(command, *BASE[command], flag, float(value),
                        "--out", str(out))
        assert run_config(tmp_path, cfg) == 3
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not out.exists()

    # bounds that a library call checks: exit 3 with a config_error report
    @pytest.mark.parametrize("argv", [
        ["solve", "--subeq", "laplace:n=2", "--bc", "x", "--m", "2"],
        ["solve", "--subeq", "laplace:n=2", "--bc", "x", "--m", "9",
         "--sweep-tol", "-1"],
        ["solve", "--subeq", "laplace:n=2", "--bc", "x", "--m", "9",
         "--sweep-tol", "nan"],
        ["solve", "--subeq", "laplace:n=2", "--bc", "0", "--box", "0,inf",
         "--m", "9"],
        ["solve", "--subeq", "laplace:n=2", "--bc", "0", "--box", "nan,1",
         "--m", "9"],
        ["garding", "--poly", "det", "--n", "0", "--matrix", "1"],
        ["garding", "--poly", "det", "--n", "2", "--matrix", "nan,0;0,1"],
        ["convexity", "--subeq", "cy:n=2", "--domain", "ball:n=2",
         "--points", "3", "--lambda-grid", "0,nan"],
    ])
    def test_library_bounds_exit_3_on_both_routes(self, tmp_path, argv):
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 3
        first = out.read_bytes()
        out.unlink()
        assert run_config(tmp_path, as_config(*argv, "--out", str(out))) == 3
        assert out.read_bytes() == first
        assert json.loads(first)["status"] == "config_error"

    def test_integral_float_is_an_int(self, tmp_path):
        argv = ["solve", "--subeq", "laplace:n=2", "--bc", "x^2-y^2"]
        _, out1 = run(tmp_path, *argv, "--m", "33",
                      "--out-field", str(tmp_path / "f1.csv"))
        out2 = tmp_path / "report2.json"
        assert run_config(tmp_path, {
            "command": "solve", "subeq": "laplace:n=2", "bc": "x^2-y^2",
            "m": 33.0, "out": str(out2),
            "out_field": str(tmp_path / "f2.csv")}) == 0
        assert out2.read_bytes() == out1.read_bytes()

    def test_sweep_order_is_not_an_option(self, tmp_path, capsys):
        # the solver has one sweep schedule: a flag or config key naming
        # another is a usage error, not a silently ignored setting
        out = tmp_path / "report.json"
        argv = ["solve", *BASE["solve"], "--m", "9", "--order", "lex"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 3
        assert "--order" in capsys.readouterr().err
        assert run_config(tmp_path, as_config(*argv, "--out", str(out))) == 3
        assert "--order" in capsys.readouterr().err
        assert not out.exists()

    def test_flags_are_never_abbreviated(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_config(tmp_path, {"command": "check", "tri": 10,
                                     "subeq": "laplace:n=2",
                                     "out": str(out)}) == 3
        with pytest.raises(SystemExit) as exc:
            main(["check", "--subeq", "laplace:n=2", "--tri", "10",
                  "--out", str(out)])
        assert exc.value.code == 3
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[1, 2]", '{"command": "riesz", '
                                      '"cone": null}'])
    def test_config_must_be_an_object_of_scalars(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["--config", str(path)]) == 3
