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

    def test_unknown_method_is_usage_error(self, config_path, tmp_path):
        code = main(["run", "--config", config_path, "--method", "bench9",
                     "--seed", "1", "--out", str(tmp_path / "o.csv")])
        assert code == 1

    def test_missing_arguments_usage_error(self):
        assert main(["run", "--method", "proposed"]) == 1
        assert main([]) == 1

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


def sweep_spec(**fields):
    """A one-trial sweep of ``desk_scenario(seed=1)`` as JSON, with ``fields`` replaced."""
    return {"base": desk_scenario(seed=1).to_json_dict(), "axis": "M", "values": [2],
            "trials_per_point": 1, "methods": ["proposed"], "solver": {"n_iter": 2}, **fields}


def base_spec(**base):
    """``sweep_spec()`` with ``base`` fields of its scenario replaced."""
    return sweep_spec(base=dict(desk_scenario(seed=1).to_json_dict(), **base))


# Input files the CLI turns away: (command, file content or None for no file, the
# message's start). The first ten cases are one per exit path; the rest are the
# other bad inputs each path turns away. The library tests pin each message in full.
INPUT_ERRORS = {
    "missing_file": ("run", None, "config error: [Errno 2] No such file or directory"),
    "malformed_json": ("run", "{", "config error: Expecting property name"),
    "unknown_field": ("run", {"M_t": 2, "bogus": True},
                      "config error: unknown scenario fields: ['bogus']"),
    "not_an_object": ("sweep", ["axis"], "spec error: sweep must be a JSON object, got list"),
    "no_base": ("sweep", {"axis": "M"}, "spec error: 'base'"),
    "bad_base_field": ("sweep", sweep_spec(base=dict(desk_scenario(seed=1).to_json_dict(),
                                                     obstacles=[[50.0, 30.0]])),
                       "spec error: obstacle entries"),
    "bad_axis_value": ("sweep", sweep_spec(values=[2, 0]), "spec error: axis value M=0 is invalid"),
    "bad_solver_field": ("sweep", sweep_spec(solver={"n_iter": 2, "seed": 0}),
                         "spec error: unknown solver fields: ['seed']"),
    "runs_nothing": ("sweep", sweep_spec(methods=[]),
                     "spec error: sweep needs at least one method"),
    "unknown_method": ("sweep", sweep_spec(methods=["bench9"]),
                       "spec error: unknown method 'bench9'"),
    "run_obstacle_two_values": ("run", dict(desk_scenario(seed=3).to_json_dict(),
                                            obstacles=[[50.0, 30.0]]),
                                "config error: obstacle entries"),
    "n_iter_zero": ("sweep", sweep_spec(solver={"n_iter": 0}),
                    "spec error: n_iter must be >= 1"),
    "n_iter_fraction": ("sweep", sweep_spec(solver={"n_iter": 2.5}),
                        "spec error: n_iter must be an integer"),
    "sdp_cap_zero": ("sweep", sweep_spec(solver={"sdp_max_iters": 0}),
                     "spec error: sdp_max_iters must be >= 1"),
    "sdp_cap_fraction": ("sweep", sweep_spec(solver={"sdp_max_iters": 7.5}),
                         "spec error: sdp_max_iters must be an integer"),
    "rcg_cap_bool": ("sweep", sweep_spec(solver={"rcg": {"max_iters": True}}),
                     "spec error: max_iters must be an integer"),
    "trials_fraction": ("sweep", sweep_spec(trials_per_point=1.5),
                        "spec error: trials_per_point must be an integer"),
    "axis_value_x": ("sweep", sweep_spec(values=[2, "x"]), "spec error: axis value M='x'"),
    "axis_value_2.5": ("sweep", sweep_spec(values=[2, 2.5]), "spec error: axis value M=2.5"),
    "no_values": ("sweep", sweep_spec(values=[]),
                  "spec error: sweep needs at least one axis value"),
    "repeated_method": ("sweep", sweep_spec(methods=["proposed", "proposed"]),
                        "spec error: sweep lists method 'proposed' twice"),
    "repeated_value": ("sweep", sweep_spec(axis="P_T_dBm", values=[40, 40.0]),
                       "spec error: sweep lists axis value 40.0 twice"),
    "methods_string": ("sweep", sweep_spec(methods="proposed"),
                       "spec error: methods must be a list, got 'proposed'"),
    "values_string": ("sweep", sweep_spec(values="24"),
                      "spec error: values must be a list, got '24'"),
    # json.dumps writes a NaN field as NaN
    "nan_d_k": ("sweep", base_spec(d_k=math.nan), "spec error: d_k must be finite"),
    "nan_sigma_r2_dBm": ("sweep", base_spec(sigma_r2_dBm=math.nan),
                         "spec error: sigma_r2_dBm must be finite"),
    "base_sigma_t": ("sweep", base_spec(sigma_t_m2=-1.0), "spec error: sigma_t_m2 must be > 0"),
    "axis_sigma_t": ("sweep", sweep_spec(axis="sigma_t_m2", values=[5.0, -1.0]),
                     "spec error: axis value sigma_t_m2=-1.0 is invalid: sigma_t_m2 must be > 0"),
    "base_pattern_q": ("sweep", base_spec(pattern_q=-1.0), "spec error: pattern_q must be >= 0"),
    "axis_pattern_q": ("sweep", sweep_spec(axis="pattern_q", values=[2.0, -1.0]),
                       "spec error: axis value pattern_q=-1.0 is invalid: pattern_q must be >= 0"),
    "base_zero_ris_rcs": ("sweep", base_spec(pattern_q=2.0, ris_elevation_t_rad=math.pi),
                          "spec error: sigma_ris_m2 must be > 0"),
    "axis_zero_ris_rcs": ("sweep", dict(base_spec(pattern_q=2.0), axis="ris_elevation_t_rad",
                                        values=[0.0, math.pi]),
                          f"spec error: axis value ris_elevation_t_rad={math.pi} is invalid: "
                          "sigma_ris_m2 must be > 0"),
    # the element pattern is cos^pattern_q alone; the old selector is unknown
    "base_radiation_pattern": ("sweep", base_spec(radiation_pattern="unity"),
                               "spec error: unknown scenario fields: ['radiation_pattern']"),
    "axis_overflowing_path_gain": ("sweep", sweep_spec(axis="d_k", values=[500.0, 1e200]),
                                   "spec error: axis value d_k=1e+200 is invalid: "
                                   "a path gain is out of float range"),
    "axis_overflowing_noise": ("sweep", sweep_spec(axis="sigma_r2_dBm", values=[-80.0, 4000.0]),
                               "spec error: axis value sigma_r2_dBm=4000.0 is invalid: "
                               "a link-budget factor overflows"),
    "base_seed_string": ("sweep", base_spec(seed="x"), "spec error: seed must be an integer"),
    "base_seed_float": ("sweep", base_spec(seed=1.5), "spec error: seed must be an integer"),
    "base_seed_bool": ("sweep", base_spec(seed=True), "spec error: seed must be an integer"),
}


@pytest.mark.parametrize("command, content, message", INPUT_ERRORS.values(),
                         ids=INPUT_ERRORS.keys())
def test_input_error_exits_1_and_writes_nothing(command, content, message, tmp_path, capsys):
    path, out = tmp_path / "input.json", tmp_path / "o.csv"
    if content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    args = (["run", "--config", str(path), "--method", "proposed", "--seed", "1"]
            if command == "run" else ["sweep", "--spec", str(path)])
    assert main(args + ["--out", str(out)]) == 1
    assert f"pimin: {message}" in capsys.readouterr().err
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


class TestCheck:
    def test_check_passes(self, capsys):
        assert main(["check"]) == 0
        assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [
            "PASS " + name for name in (
                "kron_apply_matches_dense", "hermitian_evd_reconstruction",
                "euclidean_gradient_matches_finite_difference", "manifold_iterates_and_descent",
                "sdp_scalar_and_kinks_exact_and_dominates_samples",
                "reduced_objective_matches_power[2x4x4]", "lapack_wrappers_match_numpy_linalg")]

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
