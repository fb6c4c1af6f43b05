import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

import twistspec
from twistspec import cli, specfun


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_symmetric_gaussian_record(self, capsys):
        code, out, _ = run(["solve", "--measure", "gaussian", "--n", "1",
                            "--mass", "0.5", "--split", "0.5"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        rec = dict(zip(header.split(","), row.split(",")))
        assert float(rec["c"]) == 0.0
        assert float(rec["lambda"]) == pytest.approx(3.2584169547794604, rel=1e-9)

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_unit_mass_halflines_print_zero_offsets(self, command, capsys):
        # component masses of 1/2: offsets of 0, which print as 0, not -0
        code, out, _ = run([command, "--mass", "1", "--split", "0.5"], capsys)
        assert code == 0
        assert out.splitlines()[1].startswith("gaussian,1,0,0,0,")
        code, out, _ = run([command, "--mass", "1", "--split", "0.5",
                            "--format", "json"], capsys)
        assert code == 0
        assert not [ln for ln in out.splitlines()
                    if re.search(r"-0(\.0+)?,?$", ln)]

    def test_component_mass_just_below_half(self, capsys):
        # two half-spaces of mass 0.4999999999 at L = R = 1.77e-10; the
        # symmetric pair's lambda is the half-space Dirichlet value, 2 nu*
        # for the root of nu -> H_nu(L) near 1.  mpmath 1.3.0, mp.mp.dps =
        # 40: 2 * mp.findroot(lambda n: mp.hermite(n, mp.mpf(L)), 1) =
        # 2.0000000004000000331.
        code, out, _ = run(["solve", "--mass", "0.9999999998", "--split",
                            "0.5", "--format", "json"], capsys)
        assert code == 0
        assert abs(json.loads(out)["lambda"] - 2.0000000004) <= 1e-15

    def test_power_two_unit_balls(self, capsys):
        code, out, _ = run(["solve", "--measure", "power", "--n", "3",
                            "--k", "0", "--L", "1", "--R", "1",
                            "--format", "json"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["lambda"] == pytest.approx(math.pi ** 2, rel=1e-6)
        # freq is j_{1/2,1} = pi, which the zero scan bisects to the float
        # pi itself
        assert rec["freq"] == math.pi
        assert rec["nu"] is None
        assert rec["alpha"] == -0.5

    @pytest.mark.parametrize("argv, lo, hi", [
        # offsets near 3.4-3.5, read from the Dirichlet degree tables and
        # certified by a sign bracket
        (["--mass", "1e-6", "--split", "0.3"],
         19.796152587263099, 20.789786982755572),
        # the top of the tables, where the Kummer combination cancels most
        (["--measure", "gaussian", "--L", "4.9", "--R", "4.95"],
         34.31965943626942319, 34.881217512714575765),
    ])
    def test_gaussian_bracket_ends_against_mpmath(self, argv, lo, hi, capsys):
        # mpmath 1.3.0 at dps = 40, at each offset L:
        #   2 * findroot(lambda n: hermite(n, L), guess)
        # with guess 10 for the first pair and 17 for the second
        code, out, _ = run(["solve", *argv, "--format", "json"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert abs(rec["bracket_lo"] / lo - 1) <= 1e-13
        assert abs(rec["bracket_hi"] / hi - 1) <= 1e-13

    def test_power_secular_root_exact_bytes(self, capsys):
        # a power pair whose secular function takes both Bessel orders at
        # each boundary from one series pass, and whose root comes from the
        # two-pole secular step (mpmath 1.3.0: 10.32859746791964; the
        # bracket ends (j_{3/2,1}/R)^2 and (j_{3/2,1}/L)^2 at the pair's
        # float radii, besseljzero(1.5, 1) at dps = 40: 9.008722563161449
        # and 11.145992398729474)
        code, out, _ = run(["solve", "--measure", "power", "--n", "3",
                            "--k", "2", "--mass", "5", "--split", "0.37",
                            "--format", "json"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert (rec["lambda"], rec["bracket_lo"], rec["bracket_hi"]) == (
            10.328597467919643, 9.00872256316145, 11.145992398729476)

    def test_power_homogeneity_at_small_radius(self, capsys):
        # power radii compare relatively in the symmetry test: a pair 5e-4
        # apart at radius 1e-6 solves as the unit pair scaled by 1/c^2,
        # not as the symmetric shortcut
        lams = []
        for L, R in (("1e-6", "1.0005e-6"), ("1", "1.0005")):
            code, out, _ = run(["solve", "--measure", "power", "--n", "3",
                                "--k", "0", "--L", L, "--R", R,
                                "--format", "json"], capsys)
            assert code == 0
            lams.append(json.loads(out)["lambda"])
        small, unit = lams
        assert abs(small * 1e-12 - unit) <= 1e-12

    def test_solver_order_guard_exit_code(self, capsys):
        code, _, err = run(["solve", "--measure", "power", "--n", "1",
                            "--k", "0.5", "--mass", "1.0", "--split", "0.5"],
                           capsys)
        assert code == 2
        assert "n+k>2" in err

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_angular_constant_overflow_exit_code(self, command, capsys):
        # n + k >= 344: Gamma((n+k)/2) overflows a float
        code, out, err = run([command, "--measure", "power", "--n", "3",
                              "--k", "400", "--mass", "1", "--split", "0.4"],
                             capsys)
        assert code == cli.EXIT_NUMERICAL == 3
        assert out == ""
        assert err.splitlines() == [err.strip()] and "343.24" in err

    @pytest.mark.parametrize("L, R", [("1e-150", "2e-150"),
                                      ("1e200", "1.3e200")])
    def test_power_radii_beyond_float_range_exit_code(self, L, R, capsys):
        # component masses far outside [1e-200, 1e200]: one line naming
        # the range, no traceback
        code, out, err = run(["solve", "--measure", "power", "--n", "3",
                              "--k", "0", "--L", L, "--R", R], capsys)
        assert code == cli.EXIT_NUMERICAL == 3
        assert out == ""
        assert err.splitlines() == [err.strip()]
        assert "component masses in [1e-200, 1e+200]" in err

    def test_missing_configuration(self, capsys):
        code, _, err = run(["solve", "--measure", "gaussian", "--n", "1"],
                           capsys)
        assert code == 2

    def test_infeasible_gaussian_split(self, capsys):
        code, _, err = run(["solve", "--measure", "gaussian", "--n", "1",
                            "--mass", "0.9", "--split", "0.6"], capsys)
        assert code == 2
        assert "infeasible" in err


class TestFlagsPerCommand:
    @pytest.mark.parametrize("argv", [
        ["solve", "--seed", "1"],
        ["scan", "--split", "0.4"],
        ["verify", "--mass", "1"],
        ["oracle", "--seed", "3"],
    ])
    def test_flag_the_command_does_not_read_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["solve", "--L", "nan", "--R", "nan"],
        ["solve", "--measure", "power", "--n", "3", "--k", "inf",
         "--mass", "1", "--split", "0.4"],
        ["oracle", "--mass", "0.5", "--split", "0.4", "--tol", "nan"],
    ])
    def test_non_finite_number_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err


class TestFileErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        path = str(tmp_path / "missing.cfg")
        code, out, err = run(["solve", "--config", path], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [err.strip()] and path in err

    def test_unwritable_out_path(self, tmp_path, capsys):
        path = str(tmp_path / "missing" / "x.csv")
        code, out, err = run(["solve", "--mass", "0.5", "--split", "0.5",
                              "--out", path], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [err.strip()] and path in err

    @pytest.mark.parametrize("argv", [
        ["solve", "--mass", "0.5", "--split", "0.5"],
        ["verify", "--suite", "recovery"],
    ])
    def test_closed_stdout_is_not_a_file_error(self, argv, monkeypatch,
                                               capsys):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code, _, err = run(argv, capsys)
        assert code == cli.EXIT_PIPE == 141
        assert err == ""
        # nothing is left for the flush at interpreter exit
        assert sys.stdout is None


class TestScan:
    def test_rows_and_minimum(self, tmp_path, capsys):
        out_file = tmp_path / "scan.csv"
        code, _, _ = run(["scan", "--measure", "gaussian", "--n", "1",
                          "--mass", "0.5", "--grid", "11",
                          "--out", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["s", "L", "R", "lambda", "dlambda_ds_analytic",
                          "dlambda_ds_fd", "c", "du_left", "du_right"]
        assert len(lines) == 12
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        lams = [float(r["lambda"]) for r in rows]
        ss = [float(r["s"]) for r in rows]
        assert ss[lams.index(min(lams))] == pytest.approx(0.5)

    def test_too_small_grid_rejected(self, capsys):
        code, _, _ = run(["scan", "--measure", "gaussian", "--n", "1",
                          "--mass", "0.5", "--grid", "1"], capsys)
        assert code == 2

    def test_zero_grid_rejected(self, capsys):
        code, _, _ = run(["scan", "--measure", "gaussian", "--n", "1",
                          "--mass", "0.5", "--grid", "0"], capsys)
        assert code == 2

    def test_reruns_byte_identical(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (f1, f2):
            code, _, _ = run(["scan", "--measure", "power", "--n", "2",
                              "--k", "1", "--mass", "1.5", "--grid", "7",
                              "--out", str(f)], capsys)
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_json_round_trip(self, tmp_path, capsys):
        out_file = tmp_path / "scan.json"
        run(["scan", "--measure", "gaussian", "--n", "1", "--mass", "0.5",
             "--grid", "5", "--format", "json", "--out", str(out_file)],
            capsys)
        payload = json.loads(out_file.read_text())
        assert payload["measure"] == "gaussian"
        assert len(payload["rows"]) == 5
        again = json.loads(json.dumps(payload))
        assert again == payload

    def test_json_is_strict(self, capsys):
        # the one-sided end rows have no finite-difference derivative
        code, out, _ = run(["scan", "--measure", "power", "--n", "3",
                            "--k", "0", "--mass", "3.0", "--grid", "5",
                            "--format", "json"], capsys)
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        rows = json.loads(out, parse_constant=reject)["rows"]
        assert rows[0]["dlambda_ds_fd"] is None
        assert rows[-1]["dlambda_ds_fd"] is None
        assert all(math.isfinite(r["dlambda_ds_fd"]) for r in rows[1:-1])

    def test_tiny_power_mass_mirror_ends(self, capsys):
        # at mass 1e-27 (radii near 6e-10) only s = 1/2 takes the symmetric
        # shortcut, so the mirrored ends of the scan agree
        code, out, _ = run(["scan", "--measure", "power", "--n", "3",
                            "--k", "0", "--mass", "1e-27", "--grid", "5",
                            "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert abs(rows[0]["lambda"] / rows[-1]["lambda"] - 1) <= 1e-12

    def test_csv_keeps_nan(self, capsys):
        code, out, _ = run(["scan", "--measure", "power", "--n", "3",
                            "--k", "0", "--mass", "3.0", "--grid", "5"],
                           capsys)
        assert code == 0
        header, first = out.splitlines()[:2]
        rec = dict(zip(header.split(","), first.split(",")))
        assert rec["dlambda_ds_fd"] == "nan"


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run(["verify", "--suite", "turan"], capsys)
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_injected_fault_fails_named_invariant(self, monkeypatch, capsys):
        gap = specfun.turan_gap
        monkeypatch.setattr(specfun, "turan_gap",
                            lambda nu, t: -gap(nu, t))
        code, out, _ = run(["verify", "--suite", "turan"], capsys)
        assert code == 1
        assert "FAIL  turan.positivity_grid" in out

    def test_inject_fault_flag_is_unknown(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "turan", "--inject-fault", "turan"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --inject-fault" in (
            capsys.readouterr().err)

    def test_json_output_deterministic(self, tmp_path, capsys):
        f1, f2 = tmp_path / "v1.json", tmp_path / "v2.json"
        for f in (f1, f2):
            code, _, _ = run(["verify", "--suite", "recovery", "--seed", "5",
                              "--format", "json", "--out", str(f)], capsys)
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()
        payload = json.loads(f1.read_text())
        assert payload["all_passed"] is True

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["verify", "--suite", "nope"])

    def test_negative_seed_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "recovery", "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "non-negative" in err and "Traceback" not in err


class TestOracleCommand:
    def test_agreement(self, capsys):
        code, out, _ = run(["oracle", "--measure", "power", "--n", "2",
                            "--k", "1", "--mass", "1.0", "--split", "0.6",
                            "--format", "json"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["relative_gap"] <= 1e-3

    @pytest.mark.parametrize("mass", ["1e16", "1e20", "1e100"])
    def test_large_power_mass(self, mass, capsys):
        # the mean-constraint gate scales with sqrt(total mass), so the
        # homogeneous problem solves at every mass; at mass 1 the same
        # split reads relative_gap 1.9506731969027696e-07
        code, out, err = run(["oracle", "--measure", "power", "--n", "3",
                              "--k", "0", "--mass", mass, "--split", "0.4",
                              "--format", "json"], capsys)
        assert code == 0, err
        assert json.loads(out)["relative_gap"] == pytest.approx(
            1.9506731969027696e-07, rel=1e-4)

    def test_tiny_component_is_a_typed_failure(self, capsys):
        # R = 1e-4 next to L = 1: the oracle resolves no root (see
        # test_oracle.TestComponentScale) and says so, instead of reporting
        # a closed-form vs oracle disagreement
        code, out, err = run(["oracle", "--measure", "power", "--n", "3",
                              "--k", "0", "--L", "1", "--R", "1e-4"], capsys)
        assert code == 3 and out == ""
        assert "numerical failure: twisted_eig" in err and "tau = " in err
        assert "disagreement" not in err

    def test_zero_tolerance_fails(self, capsys):
        code, out, err = run(["oracle", "--measure", "power", "--n", "2",
                              "--k", "1", "--mass", "1.0", "--split", "0.6",
                              "--tol", "0"], capsys)
        assert code == 3
        assert "disagreement" in err

    def test_zero_grid_rejected(self, capsys):
        code, _, err = run(["oracle", "--measure", "power", "--n", "2",
                            "--k", "1", "--mass", "1.0", "--split", "0.6",
                            "--grid", "0"], capsys)
        assert code == 2
        assert "--grid" in err


class TestConfigFile:
    def test_file_supplies_values_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "measure = gaussian\nn = 1\nmass = 0.5\nsplit = 0.4\n"
            "format = json\n# comment line\n")
        code, out, _ = run(["solve", "--config", str(cfg)], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["mass_left"] == pytest.approx(0.2)

        code, out, _ = run(["solve", "--config", str(cfg), "--split", "0.5"],
                           capsys)
        rec = json.loads(out)
        assert rec["mass_left"] == pytest.approx(0.25)

    def test_bad_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense = 1\n")
        code, _, err = run(["solve", "--config", str(cfg)], capsys)
        assert code == 2

    def test_key_the_command_does_not_read_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mass = 0.5\nsplit = 0.4\nseed = 1\n")
        code, _, err = run(["solve", "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown config key" in err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("suite = recovery\nseed = -1\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "non-negative" in err and "Traceback" not in err

    @pytest.mark.parametrize("line", ["format = xml", "n = abc", "L = nan"])
    def test_bad_value_rejected_by_parser(self, line, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mass = 0.5\nsplit = 0.4\n{line}\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_value_starting_with_dash(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(
            "mass = 0.5\nsplit = 0.4\nformat = json\nout = -dash.json\n")
        code, out, _ = run(["solve", "--config", "run.cfg"], capsys)
        assert code == 0
        assert out == ""
        rec = json.loads((tmp_path / "-dash.json").read_text())
        assert rec["mass_left"] == pytest.approx(0.2)


class TestImportGraph:
    @staticmethod
    def _fresh(code: str) -> str:
        src = os.path.dirname(os.path.dirname(twistspec.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True,
                              check=True).stdout.strip()

    def test_cli_imports_no_scipy_optimize(self):
        # a fresh process: scipy.optimize, and scipy.sparse and
        # scipy.spatial that it pulls in, cost start-up time and memory
        code = ("import sys, twistspec, twistspec.cli; "
                "print(sorted(m for m in ('scipy.optimize', 'scipy.sparse', "
                "'scipy.spatial') if m in sys.modules))")
        assert self._fresh(code) == "[]"

    def test_closed_form_route_loads_no_scipy(self):
        # a fresh process: a solve and a scan load no scipy module, and the
        # first oracle solve loads LAPACK itself; its lambda is the one
        # from the module-level import it replaces
        code = "\n".join((
            "import io, sys, contextlib, twistspec, twistspec.cli",
            "from twistspec import cli, measures, oracle, shapeopt",
            "from twistspec.measures import MeasureSpec",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    cli.main(['solve', '--mass', '0.5', '--split', '0.4'])",
            "shapeopt.scan(MeasureSpec.gaussian(1), 0.5, 11)",
            "shapeopt.scan(MeasureSpec.power(3, 0.0), 1.0, 11)",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            "cfg = measures.PairConfig(MeasureSpec.gaussian(1), 0.5, 0.8)",
            "print(repr(float(oracle.twisted_eig(",
            "    oracle.pair_domain(cfg)).eigenvalues[0])))"))
        loaded, lam = self._fresh(code).splitlines()
        assert loaded == "[]"
        assert float(lam) == 3.98686403624101
