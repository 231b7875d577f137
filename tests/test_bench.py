import csv
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pimin
from pimin import rcg
from pimin.bccd import BccdConfig, bccd_solve, seeded_start
from pimin.bench import (BELOW_NOISE_SENTINEL, TRIAL_FIELDS, Method, _aggregate,
                         _run_share, SweepSpec, TrialRecord, run_sweep, run_trial,
                         trial_seed, write_records_csv)
from pimin.errors import DomainError
from pimin.rcg import RcgConfig
from pimin.scenario import desk_bench_scenario, desk_scenario, generate_channels
from pimin.selfcheck import self_check

FAST = BccdConfig(n_iter=4)


def without_runtime(records):
    return [replace(r, runtime_ms=0.0) for r in records]


@pytest.fixture
def started(monkeypatch):
    """Every worker process a sweep starts, recorded in this process, so the
    record holds under every start method."""
    real = multiprocessing.process.BaseProcess.start
    log = []

    def start(self):
        log.append(self)
        real(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    return log


def four_method_spec(seed: int) -> SweepSpec:
    """Two axis points, three trials, every method."""
    return SweepSpec(base=desk_scenario(seed=seed), axis="M", values=(2, 4),
                     trials_per_point=3, methods=tuple(Method), solver=FAST)


class TestMethod:
    def test_lookup_roundtrip(self):
        for m in Method:
            assert Method(m.value) is m
            assert Method(m) is m

    def test_lookup_unknown(self):
        with pytest.raises(DomainError, match="unknown method 'bench9'; choose from"):
            Method("bench9")


class TestRunTrial:
    def test_record_carries_scenario_dims(self):
        scen = desk_scenario(seed=1)
        rec = run_trial(scen, Method.PROPOSED, FAST, seed=101)
        assert (rec.M_t, rec.M_r, rec.M, rec.N_x, rec.N_y, rec.L) == \
            (scen.M_t, scen.M_r, scen.M, scen.N_x, scen.N_y, scen.L)
        assert rec.seed == 101
        assert rec.method == "proposed"
        assert rec.outer_iterations >= 1

    def test_method_name_gives_the_member_row_and_an_unknown_one_solves_nothing(
            self, monkeypatch):
        scen = desk_scenario(seed=1)
        by_member, by_name = (replace(run_trial(scen, m, FAST, seed=101), runtime_ms=0.0)
                              for m in (Method.BENCH2_EQUAL_PHASE, "bench2_equal_phase"))
        assert by_name == by_member
        monkeypatch.setattr(pimin.bench, "bccd_solve", None)    # a solve raises TypeError
        with pytest.raises(DomainError, match="^unknown method 'bench9'"):
            run_trial(scen, "bench9", FAST, seed=101)

    def test_optimal_status_means_sensing_target_met(self):
        # a covariance whose SDP says "optimal" must meet the 10 dB SNDR
        # target; this trial's null-space covariance reaches only about 2 dB
        scen = desk_bench_scenario(seed=1)
        cfg = BccdConfig(n_iter=2, rcg=RcgConfig(max_iters=200, grad_tol=1e-10))
        rec = run_trial(scen, Method.BENCH1_RANDOM_PHASE, cfg,
                        trial_seed(1, 8, 17), 17)
        if rec.sdp_status_final == "optimal":
            assert rec.sndr_dB >= scen.gamma_sense_dB - 0.01

    def test_no_ris_record_independent_of_ris_size(self):
        rec_small = run_trial(desk_scenario(N_x=2, N_y=2, seed=2),
                              Method.BENCH3_NO_RIS, FAST, seed=55)
        rec_large = run_trial(desk_scenario(N_x=4, N_y=8, seed=2),
                              Method.BENCH3_NO_RIS, FAST, seed=55)
        assert rec_small.P_PI_dB == rec_large.P_PI_dB
        assert rec_small.sndr_dB == rec_large.sndr_dB

    def test_equal_phase_matches_direct_solver_call(self):
        scen = desk_scenario(seed=3)
        rec = run_trial(scen, Method.BENCH2_EQUAL_PHASE, FAST, seed=77)
        ch = generate_channels(scen, np.random.default_rng(77))
        out = bccd_solve(FAST, scen, seeded_start(77, scen, ch),
                         frozen_phi=np.ones(scen.N, dtype=complex))
        assert np.array_equal(out.phi, np.ones(scen.N, dtype=complex))
        assert abs(rec.P_PI_dB - 10 * math.log10(out.final_powers.p_pi
                                                 * scen.g_lna_lin)) <= 1e-9

    def test_no_ris_matches_direct_solver_call(self):
        scen = desk_scenario(seed=5)
        rec = run_trial(scen, Method.BENCH3_NO_RIS, FAST, seed=66)
        ch = generate_channels(scen, np.random.default_rng(66))
        out = bccd_solve(FAST, scen, seeded_start(66, scen, ch),
                         frozen_phi=np.zeros(scen.N, dtype=complex))
        assert np.array_equal(out.phi, np.zeros(scen.N, dtype=complex))
        assert abs(rec.P_PI_dB - 10 * math.log10(out.final_powers.p_pi
                                                 * scen.g_lna_lin)) <= 1e-9

    def test_random_phase_benchmark_freezes_seeded_draw(self):
        scen = desk_scenario(seed=4)
        rec = run_trial(scen, Method.BENCH1_RANDOM_PHASE, FAST, seed=88)
        ch = generate_channels(scen, np.random.default_rng(88))
        start = seeded_start(88, scen, ch)
        out = bccd_solve(FAST, scen, start, frozen_phi=start.x.phi)
        # phases stayed on their random initialization: unit modulus, not ones
        assert np.array_equal(out.phi, start.x.phi)
        assert np.max(np.abs(out.phi - 1.0)) > 1e-3
        assert abs(rec.P_PI_dB - 10 * math.log10(out.final_powers.p_pi
                                                 * scen.g_lna_lin)) <= 1e-9

    def test_proposed_not_worse_than_random_phase(self):
        scen = desk_bench_scenario(seed=5)
        cfg = BccdConfig(n_iter=6, rcg=rcg.RcgConfig(max_iters=400, grad_tol=1e-10))
        p = run_trial(scen, Method.PROPOSED, cfg, seed=9)
        b = run_trial(scen, Method.BENCH1_RANDOM_PHASE, cfg, seed=9)
        assert p.P_PI_dB <= b.P_PI_dB

    def test_consumed_power_equals_budget_for_all_methods(self):
        scen = desk_scenario(seed=6)
        start = seeded_start(42, scen, generate_channels(scen, np.random.default_rng(42)))
        for frozen_phi in (None, start.x.phi, np.ones(scen.N), np.zeros(scen.N)):
            out = bccd_solve(FAST, scen, start, frozen_phi=frozen_phi)
            assert abs(np.trace(out.R_ss).real - scen.P_B) <= 1e-6 * scen.P_B

    def test_determinism_modulo_runtime(self):
        scen = desk_scenario(seed=7)
        a = run_trial(scen, Method.PROPOSED, FAST, seed=5)
        b = run_trial(scen, Method.PROPOSED, FAST, seed=5)
        for name in TRIAL_FIELDS:
            if name == "runtime_ms":
                continue
            assert getattr(a, name) == getattr(b, name), name


class TestSweep:
    def test_single_cell(self, tmp_path):
        spec = SweepSpec(base=desk_scenario(seed=0), axis="M", values=(2,),
                         trials_per_point=1, methods=(Method.PROPOSED,),
                         solver=FAST)
        out = tmp_path / "r.csv"
        records, aggregates = run_sweep(spec, parallelism=1, out_path=str(out))
        assert len(records) == 1
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == TRIAL_FIELDS
        assert len(rows) == 2
        meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
        assert meta["spec"]["axis"] == "M"
        assert len(meta["aggregates"]) == 1
        assert meta["aggregates"][0]["P_PI_dB"]["count"] == 1

    def test_row_count_and_order(self):
        spec = SweepSpec(base=desk_scenario(seed=1), axis="M_t", values=(1, 2),
                         trials_per_point=2,
                         methods=(Method.PROPOSED, Method.BENCH2_EQUAL_PHASE),
                         solver=FAST)
        records, _ = run_sweep(spec, parallelism=1)
        assert len(records) == 2 * 2 * 2
        keys = [(r.M_t, r.trial_id, r.method) for r in records]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1],
                                                   k[2] != "proposed"))

    def test_deterministic_reruns(self):
        spec = SweepSpec(base=desk_scenario(seed=2), axis="M", values=(2, 4),
                         trials_per_point=2, methods=(Method.PROPOSED,),
                         solver=FAST)
        a, _ = run_sweep(spec, parallelism=1)
        b, _ = run_sweep(spec, parallelism=1)
        for ra, rb in zip(a, b):
            for name in TRIAL_FIELDS:
                if name != "runtime_ms":
                    assert getattr(ra, name) == getattr(rb, name)

    @pytest.mark.parametrize("parallelism, workers", [(2, 1), (4, 2)])
    def test_parallel_matches_serial(self, parallelism, workers, started):
        # six trials in shares of ceil(6 / parallelism): 2 shares of 3, or 3
        # of 2; this process runs the first share and a worker each other one
        spec = four_method_spec(seed=3)
        serial, _ = run_sweep(spec, parallelism=1)
        parallel, _ = run_sweep(spec, parallelism=parallelism)
        assert len(serial) == 2 * 3 * 4
        assert without_runtime(parallel) == without_runtime(serial)
        assert [p.exitcode for p in started] == [0] * workers

    def test_default_parallelism_builds_no_pool(self, started):
        records, _ = run_sweep(four_method_spec(seed=3))
        assert len(records) == 2 * 3 * 4 and started == []

    @pytest.mark.parametrize("trials, parallelism, workers",
                             [(1, 4, 0), (3, 2, 1)])
    def test_pool_capped_at_task_count(self, trials, parallelism, workers, started):
        spec = SweepSpec(base=desk_scenario(seed=3), axis="M", values=(2,),
                         trials_per_point=trials, methods=(Method.PROPOSED,),
                         solver=FAST)
        records, _ = run_sweep(spec, parallelism=parallelism)
        assert [p.exitcode for p in started] == [0] * workers
        assert len(records) == trials

    def test_a_share_sends_its_rows_as_one_message(self):
        spec = four_method_spec(seed=3)
        serial, _ = run_sweep(spec, parallelism=1)
        tasks = [(spec.points[1], spec.methods, spec.solver, r.seed, r.trial_id)
                 for r in serial[12::4]]
        sent = []
        _run_share(types.SimpleNamespace(send=sent.append), tasks)
        assert len(sent) == 1
        assert without_runtime([r for trial in sent[0] for r in trial]) == \
            without_runtime(serial[12:])

    @pytest.mark.parametrize("start_method", ["spawn", "forkserver"])
    def test_workers_started_without_fork_give_the_serial_rows(self, start_method, tmp_path):
        # under these start methods (forkserver is Linux's default from Python
        # 3.14) workers import pimin afresh and find the task function by name
        script = tmp_path / "sweep.py"
        script.write_text(textwrap.dedent("""
            import multiprocessing
            import sys
            from dataclasses import replace

            from pimin.bccd import BccdConfig
            from pimin.bench import Method, SweepSpec, run_sweep
            from pimin.scenario import desk_scenario

            if __name__ == "__main__":
                multiprocessing.set_start_method(sys.argv[1])
                spec = SweepSpec(base=desk_scenario(seed=3), axis="M", values=(2, 4),
                                 trials_per_point=3, methods=tuple(Method),
                                 solver=BccdConfig(n_iter=4))
                serial, parallel = ([replace(r, runtime_ms=0.0) for r in run_sweep(spec, p)[0]]
                                    for p in (1, 4))
                sys.exit(0 if parallel == serial else 1)
        """))
        src = str(Path(pimin.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, str(script), start_method], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_one_channel_draw_per_trial(self, monkeypatch):
        import pimin.bench as bench_mod

        real = bench_mod.generate_channels
        calls = []

        def counting(scen, rng):
            calls.append(scen.M)
            return real(scen, rng)

        monkeypatch.setattr(bench_mod, "generate_channels", counting)
        bench_mod._trial_start.cache_clear()
        spec = four_method_spec(seed=6)
        records, _ = run_sweep(spec, parallelism=1)
        assert len(records) == 24
        assert calls == [2, 2, 2, 4, 4, 4]

        fresh = []
        for r in records:
            bench_mod._trial_start.cache_clear()
            fresh.append(run_trial(replace(spec.base, M=r.M), Method(r.method),
                                   FAST, r.seed, r.trial_id))
        assert len(calls) == 6 + 24
        assert without_runtime(records) == without_runtime(fresh)

    @pytest.mark.parametrize("parallelism", [0, -2, 1.5])
    def test_parallelism_below_one_rejected_before_any_trial(self, parallelism, monkeypatch):
        import pimin.bench as bench_mod

        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(bench_mod, "_trial_task", no_trial)
        spec = SweepSpec(base=desk_scenario(seed=3), axis="M", values=(2,),
                         trials_per_point=1, methods=(Method.PROPOSED,),
                         solver=FAST)
        with pytest.raises(DomainError):
            run_sweep(spec, parallelism=parallelism)

    def test_methods_share_seed_per_trial(self):
        spec = SweepSpec(base=desk_scenario(seed=4), axis="M", values=(2,),
                         trials_per_point=1,
                         methods=(Method.PROPOSED, Method.BENCH1_RANDOM_PHASE),
                         solver=FAST)
        records, _ = run_sweep(spec, parallelism=1)
        assert records[0].seed == records[1].seed

    def test_trial_seed_depends_on_inputs(self):
        s = {trial_seed(0, 2, 0), trial_seed(0, 2, 1), trial_seed(0, 4, 0),
             trial_seed(1, 2, 0)}
        assert len(s) == 4

    def test_trial_seed_keeps_every_bit_of_the_base_seed(self):
        assert len({trial_seed(base, 8, 3) for base in (0, 2**32, 2**64 + 5)}) == 3

    @pytest.mark.parametrize("base, axis_value, trial_id, seed", [
        (0, 8, 3, 3079365837), (1, 4, 0, 138486006), (7, "x", 2, 3154862321),
        (2**32 - 1, 8, 3, 2186226597), (123, 1.5, 9, 2491269951)])
    def test_trial_seed_below_two_to_the_32_is_pinned(self, base, axis_value, trial_id, seed):
        assert trial_seed(base, axis_value, trial_id) == seed

    def test_axis_validation(self):
        with pytest.raises(DomainError):
            SweepSpec(base=desk_scenario(), axis="bogus", values=(1,))
        with pytest.raises(DomainError):
            SweepSpec(base=desk_scenario(), axis="M", values=())

    @pytest.mark.parametrize("value", [0, "x", 2.5])
    def test_invalid_axis_value_rejected_with_the_spec(self, value):
        with pytest.raises(DomainError, match="M="):
            SweepSpec(base=desk_scenario(), axis="M", values=(2, value))

    def test_points_are_the_axis_scenarios(self):
        spec = SweepSpec(base=desk_scenario(seed=3), axis="N_x", values=(1, 3))
        assert spec.points == (desk_scenario(seed=3, N_x=1), desk_scenario(seed=3, N_x=3))

    @pytest.mark.parametrize("solver, message", [
        ({"n_iter": 2, "seed": 0}, r"unknown solver fields: \['seed'\]"),
        ({"bogus": 1, "n_itr": 2}, r"unknown solver fields: \['bogus', 'n_itr'\]"),
        ({"rcg": {"max_iters": 5, "tol": 1.0}}, r"unknown rcg fields: \['tol'\]"),
        (["n_iter"], "solver must be a JSON object, got list"),
        ({"rcg": [1]}, "rcg must be a JSON object, got list"),
        ({"n_iter": 2.5}, "n_iter must be an integer, got 2.5"),
        ({"n_iter": True}, "n_iter must be an integer, got True"),
        ({"sdp_max_iters": 7.5}, "sdp_max_iters must be an integer, got 7.5"),
        ({"rcg": {"max_iters": True}}, "max_iters must be an integer, got True"),
        ({"rcg": {"max_iters": 1.5}}, "max_iters must be an integer, got 1.5"),
    ])
    def test_unknown_or_malformed_solver_fields_rejected(self, solver, message):
        d = {"base": desk_scenario().to_json_dict(), "axis": "M", "values": [2],
             "solver": solver}
        with pytest.raises(DomainError, match=message):
            SweepSpec.from_json_dict(d)

    def test_int_and_float_axis_values_give_equal_rows(self):
        # 40 and 40.0 make the same scenario, hence the same seeds and rows
        specs = [SweepSpec(base=desk_scenario(seed=6), axis="P_T_dBm", values=(v,),
                           trials_per_point=2, methods=(Method.BENCH3_NO_RIS,), solver=FAST)
                 for v in (40, 40.0)]
        assert specs[0] == specs[1] and specs[0].values == (40.0,)
        assert trial_seed(6, specs[0].values[0], 0) == trial_seed(6, 40.0, 0)
        rows = [without_runtime(run_sweep(spec)[0]) for spec in specs]
        assert rows[0] == rows[1]

    def test_spec_json_roundtrip(self):
        spec = SweepSpec(base=desk_scenario(seed=5), axis="N_x", values=(1, 2),
                         trials_per_point=3,
                         methods=(Method.PROPOSED, Method.BENCH3_NO_RIS),
                         solver=FAST)
        back = SweepSpec.from_json_dict(spec.to_json_dict())
        assert back == spec

    @pytest.mark.parametrize("values", [np.array([2, 3]), tuple(np.array([2, 3]))],
                             ids=["array", "numpy_scalars"])
    def test_numpy_axis_values_give_the_plain_spec(self, values):
        spec = SweepSpec(base=desk_scenario(seed=5), axis="M", values=values)
        plain = SweepSpec(base=desk_scenario(seed=5), axis="M", values=(2, 3))
        assert spec == plain and all(type(v) is int for v in spec.values)
        back = SweepSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
        assert back == spec
        seeds = [[trial_seed(s.base.seed, v, 0) for v in s.values] for s in (spec, back)]
        assert seeds[0] == seeds[1] == [trial_seed(5, 2, 0), trial_seed(5, 3, 0)]


class TestPartialFailure:
    def test_failed_trial_becomes_diagnostic_row(self, monkeypatch):
        import pimin.bench as bench_mod

        real = bench_mod.run_trial

        def flaky(scen, method, cfg, seed, trial_id=0):
            if trial_id == 1:
                raise RuntimeError("injected")
            return real(scen, method, cfg, seed, trial_id)

        monkeypatch.setattr(bench_mod, "run_trial", flaky)
        spec = SweepSpec(base=desk_scenario(seed=9), axis="M", values=(2,),
                         trials_per_point=3, methods=(Method.PROPOSED,),
                         solver=FAST)
        records, _ = run_sweep(spec, parallelism=1)
        assert len(records) == 3
        statuses = [r.sdp_status_final for r in records]
        assert statuses.count("error:RuntimeError") == 1
        bad = next(r for r in records if r.sdp_status_final.startswith("error"))
        assert math.isnan(bad.P_PI_dB) and (bad.outer_iterations, bad.runtime_ms) == (0, 0.0)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_one_failing_method_leaves_its_trial_rows(self, parallelism, monkeypatch):
        import pimin.bench as bench_mod

        real = bench_mod.run_trial

        def flaky(scen, method, cfg, seed, trial_id=0):
            if method is Method.BENCH2_EQUAL_PHASE and trial_id == 1:
                raise RuntimeError("injected")
            return real(scen, method, cfg, seed, trial_id)

        spec = SweepSpec(base=desk_scenario(seed=8), axis="M", values=(2,),
                         trials_per_point=3, methods=tuple(Method), solver=FAST)
        clean, _ = run_sweep(spec, parallelism=1)
        monkeypatch.setattr(bench_mod, "run_trial", flaky)
        records, _ = run_sweep(spec, parallelism=parallelism)
        bad = [i for i, r in enumerate(records)
               if r.sdp_status_final == "error:RuntimeError"]
        assert len(bad) == 1
        failed = records[bad[0]]
        assert (failed.M, failed.trial_id, failed.method) == \
            (2, 1, Method.BENCH2_EQUAL_PHASE.value)
        keep = [i for i in range(len(records)) if i != bad[0]]
        assert without_runtime([records[i] for i in keep]) == \
            without_runtime([clean[i] for i in keep])

    def test_a_worker_that_dies_raises_and_writes_nothing(self, monkeypatch, tmp_path):
        import pimin.bench as bench_mod

        real, caller = bench_mod.run_trial, os.getpid()

        def dying(*args):
            if os.getpid() != caller:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(bench_mod, "run_trial", dying)
        spec = SweepSpec(base=desk_scenario(seed=8), axis="M", values=(2,),
                         trials_per_point=2, methods=(Method.PROPOSED,), solver=FAST)
        out = tmp_path / "rows.csv"
        with pytest.raises(RuntimeError, match="^a sweep worker exited with code 3 "):
            run_sweep(spec, parallelism=2, out_path=str(out))
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_an_interrupt_in_the_callers_share_terminates_the_workers(
            self, monkeypatch, started):
        import pimin.bench as bench_mod

        caller = os.getpid()

        def interrupted(*args):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(60)      # a worker still busy when the caller stops

        monkeypatch.setattr(bench_mod, "run_trial", interrupted)
        spec = SweepSpec(base=desk_scenario(seed=8), axis="M", values=(2,),
                         trials_per_point=2, methods=(Method.PROPOSED,), solver=FAST)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, parallelism=2)
        assert [p.exitcode for p in started] == [-signal.SIGTERM]
        assert multiprocessing.active_children() == []


class TestCsv:
    def test_below_noise_sentinel(self, tmp_path):
        rec = TrialRecord(trial_id=0, method="proposed", M_t=1, M_r=1, M=1,
                          N_x=1, N_y=1, L=1, P_PI_dB=float("-inf"),
                          P_sense_dB=-50.0, P_obs_dB=float("-inf"),
                          P_noise_dB=-80.0, sndr_dB=np.float64(1.5), comm_snr_dB=2.0,
                          dr_dB=float("-inf"), outer_iterations=1,
                          sdp_status_final="optimal", runtime_ms=1.0, seed=0)
        path = tmp_path / "one.csv"
        write_records_csv([rec], str(path))
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["P_PI_dB"] == BELOW_NOISE_SENTINEL
        assert rows[0]["dr_dB"] == BELOW_NOISE_SENTINEL
        assert float(rows[0]["P_sense_dB"]) == -50.0
        assert rows[0]["sndr_dB"] == "1.5"     # a numpy float is written as a number

    def test_error_row_reads_nan(self, tmp_path, monkeypatch):
        # a failed row is not fully suppressed interference: its dB cells are
        # nan, and only minus infinity is written as the sentinel
        import pimin.bench as bench_mod

        def broken(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(bench_mod, "run_trial", broken)
        spec = SweepSpec(base=desk_scenario(seed=9), axis="M", values=(2,),
                         trials_per_point=1, solver=FAST)
        path = tmp_path / "err.csv"
        run_sweep(spec, out_path=str(path))
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["sdp_status_final"] == "error:RuntimeError"
        db_cells = [rows[0][name] for name in TRIAL_FIELDS if name.endswith("_dB")]
        assert db_cells == ["nan"] * 7
        meta = json.loads((tmp_path / "err.csv.meta.json").read_text())
        counts = {k: meta["aggregates"][0]["P_PI_dB"][k] for k in ("count", "below_noise",
                                                                   "failed")}
        assert counts == {"count": 0, "below_noise": 0, "failed": 1}

    def test_aggregates_are_the_per_method_statistics_of_each_point(self, monkeypatch):
        # each (point, method) group found by its rows' own labels, with
        # every statistic taken from a plain list, whatever the row order
        import pimin.bench as bench_mod

        real = bench_mod.run_trial

        def flaky(scen, method, cfg, seed, trial_id=0):
            if (scen.M, method, trial_id) == (4, Method.BENCH1_RANDOM_PHASE, 2):
                raise RuntimeError("injected")
            return real(scen, method, cfg, seed, trial_id)

        monkeypatch.setattr(bench_mod, "run_trial", flaky)
        spec = four_method_spec(seed=5)
        records, aggregates = run_sweep(spec, parallelism=1)

        def stats(cells):
            finite = [v for v in cells if math.isfinite(v)]
            counts = {"count": len(finite), "below_noise": cells.count(-math.inf),
                      "failed": sum(math.isnan(v) for v in cells)}
            if not finite:
                return {"mean": None, "median": None, "p10": None, "p90": None, **counts}
            return {"mean": float(np.mean(finite)), "median": float(np.median(finite)),
                    "p10": float(np.percentile(finite, 10)),
                    "p90": float(np.percentile(finite, 90)), **counts}

        expected = []
        for value in spec.values:
            for method in spec.methods:
                group = [r for r in records if r.M == value and r.method == method.value]
                expected.append({"axis": "M", "value": value, "method": method.value, **{
                    name: stats([getattr(r, name) for r in group])
                    for name in sorted(TRIAL_FIELDS) if name.endswith("_dB")}})
        assert aggregates == expected
        assert [list(a) for a in aggregates] == [list(e) for e in expected]   # key order
        assert sum(a["P_PI_dB"]["failed"] for a in aggregates) == 1
        assert all(a["P_obs_dB"]["below_noise"] == 3 - a["P_obs_dB"]["failed"]
                   for a in aggregates)

    def test_aggregate_counts_below_noise_and_failed_cells_apart(self):
        stats = _aggregate([float("-inf"), float("nan"), 1.0, 2.0, float("-inf")])
        assert (stats["count"], stats["below_noise"], stats["failed"]) == (2, 2, 1)
        assert stats["mean"] == stats["median"] == 1.5


class TestSelfCheck:
    def test_fresh_build_passes(self):
        results = self_check()
        assert all(r.passed for r in results), [str(r) for r in results]
        assert [r.name for r in results] == [
            "kron_apply_matches_dense", "hermitian_evd_reconstruction",
            "euclidean_gradient_matches_finite_difference", "manifold_iterates_and_descent",
            "sdp_scalar_and_kinks_exact_and_dominates_samples",
            "reduced_objective_matches_power[2x4x4]",
            "lapack_wrappers_match_numpy_linalg"]
