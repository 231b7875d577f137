import csv
import json
import math

import numpy as np
import pytest

from pimin import rcg
from pimin.bccd import BccdConfig, bccd_solve
from pimin.bench import (BELOW_NOISE_SENTINEL, TRIAL_FIELDS, Method,
                         SweepSpec, TrialRecord, run_sweep, run_trial,
                         trial_seed, write_records_csv)
from pimin.errors import DomainError
from pimin.rcg import RcgConfig
from pimin.scenario import desk_bench_scenario, desk_scenario, generate_channels
from pimin.selfcheck import self_check

from helpers import tiny_scenario

FAST = BccdConfig(n_iter=4)


class TestMethod:
    def test_parse_roundtrip(self):
        for m in Method:
            assert Method.parse(m.value) is m

    def test_parse_unknown(self):
        with pytest.raises(DomainError):
            Method.parse("bench9")


class TestRunTrial:
    def test_record_carries_scenario_dims(self):
        scen = desk_scenario(seed=1)
        rec = run_trial(scen, Method.PROPOSED, FAST, seed=101)
        assert (rec.M_t, rec.M_r, rec.M, rec.N_x, rec.N_y, rec.L) == \
            (scen.M_t, scen.M_r, scen.M, scen.N_x, scen.N_y, scen.L)
        assert rec.seed == 101
        assert rec.method == "proposed"
        assert rec.outer_iterations >= 1

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
        import dataclasses
        out = bccd_solve(dataclasses.replace(FAST, seed=77), scen, ch,
                         phi_init=np.ones(scen.N, dtype=complex),
                         optimize_phi=False)
        assert np.array_equal(out.phi, np.ones(scen.N, dtype=complex))
        assert abs(rec.P_PI_dB - 10 * math.log10(out.final_powers.p_pi
                                                 * scen.g_lna_lin)) <= 1e-9

    def test_random_phase_benchmark_freezes_seeded_draw(self):
        scen = desk_scenario(seed=4)
        ch = generate_channels(scen, np.random.default_rng(88))
        import dataclasses
        out = bccd_solve(dataclasses.replace(FAST, seed=88), scen, ch,
                         optimize_phi=False)
        # phases stayed on their random initialization: unit modulus, not ones
        assert np.max(np.abs(np.abs(out.phi) - 1.0)) <= 1e-12
        assert np.max(np.abs(out.phi - 1.0)) > 1e-3

    def test_proposed_not_worse_than_random_phase(self):
        scen = desk_bench_scenario(seed=5)
        cfg = BccdConfig(n_iter=6, rcg=rcg.RcgConfig(max_iters=400, grad_tol=1e-10))
        p = run_trial(scen, Method.PROPOSED, cfg, seed=9)
        b = run_trial(scen, Method.BENCH1_RANDOM_PHASE, cfg, seed=9)
        assert p.P_PI_dB <= b.P_PI_dB

    def test_consumed_power_equals_budget_for_all_methods(self):
        scen = desk_scenario(seed=6)
        import dataclasses
        for method in Method:
            ch = generate_channels(scen, np.random.default_rng(42))
            if method is Method.BENCH3_NO_RIS:
                ch = ch.without_ris()
            out = bccd_solve(dataclasses.replace(FAST, seed=42), scen, ch,
                             phi_init=None if method is Method.PROPOSED else
                             np.ones(scen.N, dtype=complex),
                             optimize_phi=method is Method.PROPOSED)
            assert abs(out.R_ss.trace - scen.P_B) <= 1e-6 * scen.P_B

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

    def test_parallel_matches_serial(self):
        spec = SweepSpec(base=desk_scenario(seed=3), axis="M", values=(2,),
                         trials_per_point=3, methods=(Method.PROPOSED,),
                         solver=FAST)
        serial, _ = run_sweep(spec, parallelism=1)
        parallel, _ = run_sweep(spec, parallelism=2)
        for ra, rb in zip(serial, parallel):
            assert ra.P_PI_dB == rb.P_PI_dB and ra.seed == rb.seed

    @pytest.mark.parametrize("parallelism", [0, -2])
    def test_parallelism_below_one_rejected_before_any_trial(self, parallelism, monkeypatch):
        import pimin.bench as bench_mod

        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(bench_mod, "_sweep_task", no_trial)
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

    def test_axis_validation(self):
        with pytest.raises(DomainError):
            SweepSpec(base=desk_scenario(), axis="bogus", values=(1,))
        with pytest.raises(DomainError):
            SweepSpec(base=desk_scenario(), axis="M", values=())

    def test_spec_json_roundtrip(self):
        spec = SweepSpec(base=desk_scenario(seed=5), axis="N_x", values=(1, 2),
                         trials_per_point=3,
                         methods=(Method.PROPOSED, Method.BENCH3_NO_RIS),
                         solver=FAST)
        back = SweepSpec.from_json_dict(spec.to_json_dict())
        assert back == spec


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
        assert math.isnan(bad.P_PI_dB)


class TestCsv:
    def test_below_noise_sentinel(self, tmp_path):
        rec = TrialRecord(trial_id=0, method="proposed", M_t=1, M_r=1, M=1,
                          N_x=1, N_y=1, L=1, P_PI_dB=float("-inf"),
                          P_sense_dB=-50.0, P_obs_dB=float("-inf"),
                          P_noise_dB=-80.0, sndr_dB=1.0, comm_snr_dB=2.0,
                          dr_dB=float("-inf"), outer_iterations=1,
                          sdp_status_final="optimal", runtime_ms=1.0, seed=0)
        path = tmp_path / "one.csv"
        write_records_csv([rec], str(path))
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["P_PI_dB"] == BELOW_NOISE_SENTINEL
        assert rows[0]["dr_dB"] == BELOW_NOISE_SENTINEL
        assert float(rows[0]["P_sense_dB"]) == -50.0


class TestSelfCheck:
    def test_fresh_build_passes(self):
        report = self_check(scenarios=[tiny_scenario()])
        assert report.passed, report.lines()

    def test_corrupted_gradient_detected(self):
        def flipped(x, forms):
            return -rcg.euclid_grad(x, forms)

        report = self_check(scenarios=[], euclid_grad_fn=flipped)
        failed = [r.name for r in report.results if not r.passed]
        assert "euclidean_gradient_matches_finite_difference" in failed

    def test_empty_scenarios_only_structural(self):
        report = self_check(scenarios=[])
        names = [r.name for r in report.results]
        assert names == ["kron_identity_apply_matches_dense", "hermitian_evd_reconstruction",
                         "euclidean_gradient_matches_finite_difference",
                         "manifold_iterates_and_descent",
                         "sdp_scalar_exact_and_dominates_samples"]
