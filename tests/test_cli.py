import csv
import json
import math

import numpy as np
import pytest

from pimin.bench import TRIAL_FIELDS
from pimin.cli import main
from pimin.scenario import desk_scenario


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(desk_scenario(seed=3).to_json_dict()))
    return str(path)


class TestRun:
    def test_single_trial(self, config_path, tmp_path, capsys):
        out = tmp_path / "trial.csv"
        code = main(["run", "--config", config_path, "--method", "proposed",
                     "--seed", "7", "--out", str(out), "--n-iter", "4"])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == TRIAL_FIELDS
        assert len(rows) == 2
        assert rows[1][TRIAL_FIELDS.index("method")] == "proposed"
        assert rows[1][TRIAL_FIELDS.index("seed")] == "7"

    def test_missing_config_is_usage_error(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.json"),
                     "--method", "proposed", "--seed", "1",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1

    def test_malformed_config_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"M_t\": 2, \"bogus\": true}")
        code = main(["run", "--config", str(bad), "--method", "proposed",
                     "--seed", "1", "--out", str(tmp_path / "o.csv")])
        assert code == 1

    def test_unknown_method_is_usage_error(self, config_path, tmp_path):
        code = main(["run", "--config", config_path, "--method", "bench9",
                     "--seed", "1", "--out", str(tmp_path / "o.csv")])
        assert code == 1

    def test_missing_arguments_usage_error(self):
        assert main(["run", "--method", "proposed"]) == 1
        assert main([]) == 1

    def test_obstacle_of_two_values_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(dict(desk_scenario(seed=3).to_json_dict(),
                                        obstacles=[[50.0, 30.0]])))
        out = tmp_path / "o.csv"
        code = main(["run", "--config", str(path), "--method", "proposed",
                     "--seed", "1", "--out", str(out)])
        assert code == 1
        assert "config error: obstacle entries" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_usage_error(self, config_path, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = main(["run", "--config", config_path, "--method", "proposed",
                     "--seed", "-1", "--out", str(out)])
        assert code == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_iter", ["0", "-2", "two"])
    def test_n_iter_below_one_is_usage_error(self, config_path, tmp_path, capsys, n_iter):
        out = tmp_path / "o.csv"
        code = main(["run", "--config", config_path, "--method", "proposed",
                     "--seed", "1", "--out", str(out), "--n-iter", n_iter])
        assert code == 1
        assert "--n-iter" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_small_sweep(self, tmp_path, capsys):
        spec = {
            "base": desk_scenario(seed=1).to_json_dict(),
            "axis": "M",
            "values": [2, 4],
            "trials_per_point": 1,
            "methods": ["proposed", "bench2_equal_phase"],
            "solver": {"n_iter": 3},
        }
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--spec", str(spec_path), "--parallelism", "1",
                     "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2 * 1 * 2
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert len(meta["aggregates"]) == 4

    @pytest.mark.parametrize("parallelism", ["0", "-3"])
    def test_parallelism_below_one_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                  parallelism):
        import pimin.cli as cli_mod

        def must_not_run(*args, **kwargs):
            raise AssertionError("a rejected parallelism must not start a sweep")

        monkeypatch.setattr(cli_mod, "run_sweep", must_not_run)
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text("{}")
        code = main(["sweep", "--spec", str(spec_path), "--parallelism", parallelism,
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "--parallelism" in capsys.readouterr().err

    @pytest.mark.parametrize("fields, name", [
        ({"solver": {"n_iter": 0}}, "n_iter must be >= 1"),
        ({"solver": {"n_iter": 2.5}}, "n_iter must be an integer"),
        ({"solver": {"sdp_max_iters": 7.5}}, "sdp_max_iters must be an integer"),
        ({"solver": {"rcg": {"max_iters": True}}}, "max_iters must be an integer"),
        ({"trials_per_point": 1.5}, "trials_per_point must be an integer"),
    ], ids=["n_iter_zero", "n_iter_fraction", "sdp_cap_fraction", "rcg_cap_bool",
            "trials_fraction"])
    def test_spec_with_invalid_count_is_usage_error(self, tmp_path, capsys, fields, name):
        spec = {"base": desk_scenario(seed=1).to_json_dict(), "axis": "M", "values": [2],
                "trials_per_point": 1, "methods": ["proposed"], **fields}
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "o.csv"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 1
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_spec_with_zero_sdp_cap_is_usage_error(self, tmp_path, capsys):
        spec = {"base": desk_scenario(seed=1).to_json_dict(), "axis": "M", "values": [2],
                "trials_per_point": 1, "methods": ["proposed"],
                "solver": {"sdp_max_iters": 0}}
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "o.csv")]) == 1
        assert "sdp_max_iters" in capsys.readouterr().err

    def test_unknown_solver_field_is_spec_error(self, tmp_path, capsys):
        spec = {"base": desk_scenario(seed=1).to_json_dict(), "axis": "M", "values": [2],
                "trials_per_point": 1, "methods": ["proposed"],
                "solver": {"n_iter": 2, "seed": 0}}
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "o.csv"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 1
        assert "unknown solver fields: ['seed']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [0, "x", 2.5])
    def test_invalid_axis_value_is_spec_error(self, tmp_path, capsys, value):
        spec = {"base": desk_scenario(seed=1).to_json_dict(), "axis": "M",
                "values": [2, value], "trials_per_point": 1, "methods": ["proposed"],
                "solver": {"n_iter": 2}}
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "o.csv"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 1
        assert "spec error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fields, message", [
        ({"methods": []}, "sweep needs at least one method"),
        ({"values": []}, "sweep needs at least one axis value"),
        ({"methods": ["proposed", "proposed"]}, "sweep lists method 'proposed' twice"),
        ({"axis": "P_T_dBm", "values": [40, 40.0]}, "sweep lists axis value 40.0 twice"),
        ({"methods": "proposed"}, "methods must be a list, got 'proposed'"),
        ({"values": "24"}, "values must be a list, got '24'"),
    ], ids=["no_methods", "no_values", "repeated_method", "repeated_value",
            "methods_string", "values_string"])
    def test_spec_that_runs_nothing_or_twice_is_spec_error(self, tmp_path, capsys, fields,
                                                           message):
        spec = dict({"base": desk_scenario(seed=1).to_json_dict(), "axis": "M",
                     "values": [2], "trials_per_point": 2, "methods": ["proposed"],
                     "solver": {"n_iter": 2}}, **fields)
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "o.csv"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "spec error" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["d_k", "sigma_r2_dBm"])
    def test_nan_scenario_field_is_spec_error(self, tmp_path, capsys, field):
        base = dict(desk_scenario(seed=1).to_json_dict(), **{field: float("nan")})
        spec = {"base": base, "axis": "M", "values": [2], "trials_per_point": 1,
                "methods": ["proposed"], "solver": {"n_iter": 2}}
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))     # writes the field as NaN
        assert "NaN" in spec_path.read_text()
        out = tmp_path / "o.csv"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 1
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("base, axis, values, message", [
        ({"obstacles": [[50.0, 30.0]]}, "M", [2], "obstacle entries"),
        ({"sigma_t_m2": -1.0}, "M", [2], "sigma_t_m2 must be > 0"),
        ({}, "sigma_t_m2", [5.0, -1.0], "sigma_t_m2 must be > 0"),
        ({"pattern_q": -1.0}, "M", [2], "pattern_q must be >= 0"),
        ({}, "pattern_q", [2.0, -1.0], "pattern_q must be >= 0"),
        ({"pattern_q": 2.0, "ris_elevation_t_rad": math.pi}, "M", [2],
         "sigma_ris_m2 must be > 0"),
        ({"pattern_q": 2.0}, "ris_elevation_t_rad", [0.0, math.pi],
         "sigma_ris_m2 must be > 0"),
        # the element pattern is cos^pattern_q alone; the old selector is unknown
        ({"radiation_pattern": "unity"}, "M", [2],
         "unknown scenario fields: ['radiation_pattern']"),
        ({}, "d_k", [500.0, 1e200], "path gain is out of float range"),
        ({}, "sigma_r2_dBm", [-80.0, 4000.0], "link-budget factor overflows"),
        ({"seed": "x"}, "M", [2], "seed must be an integer"),
        ({"seed": 1.5}, "M", [2], "seed must be an integer"),
        ({"seed": True}, "M", [2], "seed must be an integer"),
    ], ids=["base_obstacle_two_values", "base_sigma_t", "axis_sigma_t", "base_pattern_q",
            "axis_pattern_q", "base_zero_ris_rcs", "axis_zero_ris_rcs",
            "base_radiation_pattern",
            "axis_overflowing_path_gain", "axis_overflowing_noise", "base_seed_string",
            "base_seed_float", "base_seed_bool"])
    def test_invalid_link_budget_is_spec_error(self, tmp_path, capsys, base, axis, values,
                                               message):
        spec = {"base": dict(desk_scenario(seed=1).to_json_dict(), **base), "axis": axis,
                "values": values, "trials_per_point": 1, "methods": ["proposed"],
                "solver": {"n_iter": 2}}
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "o.csv"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "spec error" in err and message in err
        assert not out.exists()

    def test_bad_spec_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text("{\"axis\": \"M\"}")
        assert main(["sweep", "--spec", str(spec_path),
                     "--out", str(tmp_path / "o.csv")]) == 1
        spec_path.write_text("[\"axis\"]")
        assert main(["sweep", "--spec", str(spec_path),
                     "--out", str(tmp_path / "o.csv")]) == 1
        assert "sweep must be a JSON object, got list" in capsys.readouterr().err


class TestCheck:
    def test_check_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_failed_check_exits_3(self, capsys, monkeypatch):
        from pimin import rcg
        euclid_grad = rcg.euclid_grad
        monkeypatch.setattr(rcg, "euclid_grad", lambda x, forms: -euclid_grad(x, forms))
        assert main(["check"]) == 3
        failed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
                  if line.startswith("FAIL")]
        assert failed == ["FAIL euclidean_gradient_matches_finite_difference"]

    def test_wrong_jacobian_fails_the_manifold_check(self, capsys, monkeypatch):
        # the gradient is read off the Jacobian rows, not off the residual row
        # the LM also steps with: a flipped residual leaves the gradient check passing
        from pimin import rcg
        kernels = rcg._kernels

        def flipped_residual(forms):
            evaluate, egrad, linearize, a_res = kernels(forms)

            def linearize_flipped(x, terms):
                linearize(x, terms)
                a_res[-1] *= -1.0
            return evaluate, egrad, linearize_flipped, a_res

        monkeypatch.setattr(rcg, "_kernels", flipped_residual)
        assert main(["check"]) == 3
        failed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
                  if line.startswith("FAIL")]
        assert failed == ["FAIL manifold_iterates_and_descent"]

    def test_phase_rows_without_phi_fail_both_gradient_checks(self, capsys, monkeypatch):
        # linearize writes phi_k v[k] on the phase rows; without the phi factor
        # both the LM's steps and the gradient read off those rows are wrong
        from pimin import rcg
        kernels = rcg._kernels

        def no_phi_factor(forms):
            evaluate, egrad, linearize, a_res = kernels(forms)
            phase_rows = a_res.view(np.complex128)[forms.num_bf:-1]

            def linearize_without_phi(x, terms):
                linearize(x, terms)
                phase_rows[:] = phase_rows * x[forms.num_bf:, None].conj()
            return evaluate, egrad, linearize_without_phi, a_res

        monkeypatch.setattr(rcg, "_kernels", no_phi_factor)
        assert main(["check"]) == 3
        failed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
                  if line.startswith("FAIL")]
        assert failed == ["FAIL euclidean_gradient_matches_finite_difference",
                          "FAIL manifold_iterates_and_descent"]

    def test_wrong_triangle_fails_the_lapack_check(self, capsys, monkeypatch):
        # eigenvectors read from the upper triangle are as valid, so only the
        # bit-for-bit comparison with numpy.linalg sees the swap
        from pimin import linalg
        monkeypatch.setattr(linalg, "_eigh_lo",
                            lambda a, signature: np.linalg.eigh(a, UPLO="U"))
        assert main(["check"]) == 3
        failed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
                  if line.startswith("FAIL")]
        assert failed == ["FAIL lapack_wrappers_match_numpy_linalg"]


class TestSolverFailureExit:
    def test_run_returns_solver_exit_code(self, config_path, tmp_path,
                                          monkeypatch, capsys):
        import pimin.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("injected solver failure")

        monkeypatch.setattr(cli_mod, "run_trial", boom)
        code = main(["run", "--config", config_path, "--method", "proposed",
                     "--seed", "1", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "solver failure" in capsys.readouterr().err


class TestOutputErrors:
    @pytest.fixture(params=["run", "sweep"])
    def args(self, request, config_path, tmp_path):
        """The command line of one trial, or of a one-trial sweep, without ``--out``."""
        if request.param == "run":
            return ["run", "--config", config_path, "--method", "proposed", "--seed", "1",
                    "--n-iter", "2"]
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps({"base": desk_scenario(seed=3).to_json_dict(),
                                         "axis": "M", "values": [4], "trials_per_point": 1,
                                         "solver": {"n_iter": 2}}))
        return ["sweep", "--spec", str(spec_path)]

    def test_out_in_a_missing_directory_is_usage_error(self, args, tmp_path, capsys,
                                                       monkeypatch):
        import pimin.cli as cli_mod

        def must_not_run(*args, **kwargs):
            raise AssertionError("a rejected --out must not start a trial")

        monkeypatch.setattr(cli_mod, "run_trial", must_not_run)
        monkeypatch.setattr(cli_mod, "run_sweep", must_not_run)
        out = str(tmp_path / "missing" / "o.csv")
        assert main(args + ["--out", out]) == 1
        assert out in capsys.readouterr().err

    def test_failed_write_is_output_error(self, args, tmp_path, capsys, monkeypatch):
        import pimin.bench
        import pimin.cli as cli_mod

        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli_mod, "write_records_csv", disk_full)
        monkeypatch.setattr(pimin.bench, "write_records_csv", disk_full)
        assert main(args + ["--out", str(tmp_path / "o.csv")]) == 1
        assert "pimin: output error: [Errno 28] No space left on device" in capsys.readouterr().err
