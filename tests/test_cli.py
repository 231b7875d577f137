import csv
import json

import pytest

from pimin.bench import TRIAL_FIELDS
from pimin.cli import main
from pimin.scenario import desk_scenario, save_config


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scen.json"
    save_config(desk_scenario(seed=3), str(path))
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
