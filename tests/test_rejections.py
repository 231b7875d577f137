"""Malformed arguments to the public functions are rejected with their own
error type and a message that names what is wrong."""

import math
import re

import numpy as np
import pytest

from pimin.bccd import BccdConfig
from pimin.bench import SweepSpec
from pimin.errors import DimensionError, DomainError, HermitianError
from pimin.linalg import hermitian_evd
from pimin.metrics import adc_snr, comm_snr, dynamic_range, power_noise, sndr
from pimin.rcg import (BeamformerState, PrecomputedForms, RcgConfig, objective,
                       precompute_forms, random_state)
from pimin.scenario import generate_channels, linear_to_db
from pimin.sdp import SdpProblem
from pimin.sysmodel import beam_products, build_effective_channels, check_phases

from helpers import tiny_scenario


def sdp_problem(**overrides):
    fields = dict(obj=np.eye(2), comm_mat=np.eye(2), comm_rhs=0.0,
                  sense_mat=np.eye(2), sense_rhs=0.0, trace_budget=1.0)
    fields.update(overrides)
    return SdpProblem(**fields)


def forms_for_a_mismatched_covariance():
    scen = tiny_scenario()      # M_t = 2, L = 2: a 4x4 covariance
    ch = generate_channels(scen, np.random.default_rng(0))
    return precompute_forms(hermitian_evd(np.eye(3)), ch)


def beams_of(w):
    scen = tiny_scenario()      # M = 3 radar antennas, N = 2 RIS elements
    ch = generate_channels(scen, np.random.default_rng(0))
    return beam_products(build_effective_channels(ch, np.ones(scen.N, dtype=complex)), w)


def sweep(**overrides):
    return SweepSpec(**{"base": tiny_scenario(), "axis": "M", "values": (2,), **overrides})


CASES = {
    "evd_not_2d": (lambda: hermitian_evd(np.ones(3)),
                   DimensionError, "matrix must be 2-D, got shape (3,)"),
    "evd_not_square": (lambda: hermitian_evd(np.ones((2, 3))),
                       DimensionError, "matrix must be square, got shape (2, 3)"),
    "evd_not_hermitian": (lambda: hermitian_evd(np.array([[0.0, 1.0], [0.0, 0.0]])),
                          HermitianError,
                          "matrix is not Hermitian: ||A - A^H|| = 1.414e+00 vs ||A|| = 1.000e+00"),
    "evd_not_finite": (lambda: hermitian_evd(np.diag([math.nan, 1.0])),
                       DomainError, "matrix has a non-finite entry"),
    "beam_w_length": (lambda: beams_of(np.ones(4)),
                      DimensionError, "w has shape (4,), expected (L * 3,)"),
    "beam_w_not_1d": (lambda: beams_of(np.ones((2, 3))),
                      DimensionError, "w has shape (2, 3), expected (L * 3,)"),
    "phases_shape": (lambda: check_phases(np.ones(3), 2),
                     DimensionError, "phase vector has shape (3,), expected (2,)"),
    "comm_snr_cov_shape": (lambda: comm_snr(np.eye(2), np.eye(3), 1, 1.0),
                           DimensionError, "covariance has shape (3, 3), expected a square "
                           "matrix of a positive multiple of M_t = 2"),
    "comm_snr_cov_not_2d": (lambda: comm_snr(np.eye(2), np.ones(4), 1, 1.0),
                            DimensionError, "covariance has shape (4,), expected a square "
                            "matrix of a positive multiple of M_t = 2"),
    "comm_snr_noise": (lambda: comm_snr(np.eye(2), np.eye(4), 1, 0.0),
                       DomainError, "sigma_c2 must be positive"),
    "comm_snr_noise_nan": (lambda: comm_snr(np.eye(2), np.eye(4), 1, math.nan),
                           DomainError, "sigma_c2 is NaN"),
    "comm_snr_receivers_nan": (lambda: comm_snr(np.eye(2), np.eye(4), math.nan, 1.0),
                               DomainError, "m_r must be an integer, got nan"),
    "comm_snr_gram_empty": (lambda: comm_snr(np.zeros((0, 0)), np.eye(4), 1, 1.0),
                            DimensionError,
                            "gram must be a non-empty square matrix, got shape (0, 0)"),
    "comm_snr_gram_not_square": (lambda: comm_snr(np.ones((2, 3)), np.eye(4), 1, 1.0),
                                 DimensionError,
                                 "gram must be a non-empty square matrix, got shape (2, 3)"),
    "dynamic_range_noise_nan": (lambda: dynamic_range(1.0, math.nan),
                                DomainError, "p_noise is NaN"),
    "dynamic_range_interference_nan": (lambda: dynamic_range(math.nan, 1.0),
                                       DomainError, "p_pi is NaN"),
    "sndr_zero_denominator": (lambda: sndr(1.0, 0.0, 0.0, 0.0),
                              DomainError, "SNDR denominator must be positive"),
    "dynamic_range_zero_noise": (lambda: dynamic_range(1.0, 0.0),
                                 DomainError, "noise power must be positive"),
    "sndr_nan": (lambda: sndr(1.0, math.nan, 0.0, 1.0),
                 DomainError, "p_pi is NaN"),
    "sndr_sense_nan": (lambda: sndr(math.nan, 1.0, 0.0, 1.0),
                       DomainError, "p_sense is NaN"),
    "noise_power_nan": (lambda: power_noise(np.ones(3, dtype=complex), math.nan),
                        DomainError, "sigma_r2 is NaN"),
    "adc_negative_bits": (lambda: adc_snr(-1.0),
                          DomainError, "effective bit count must be >= 0"),
    "adc_nan_bits": (lambda: adc_snr(math.nan),
                     DomainError, "n_enob is NaN"),
    "grad_tol_negative": (lambda: RcgConfig(grad_tol=-1.0),
                          DomainError, "grad_tol must be >= 0, got -1.0"),
    "grad_tol_nan": (lambda: RcgConfig(grad_tol=math.nan),
                     DomainError, "grad_tol must be >= 0, got nan"),
    "grad_tol_not_real": (lambda: RcgConfig(grad_tol="1e-8"),
                          DomainError, "grad_tol must be a real number, got '1e-8'"),
    "bccd_n_iter_zero": (lambda: BccdConfig(n_iter=0), DomainError, "n_iter must be >= 1, got 0"),
    "bccd_sdp_cap_zero": (lambda: BccdConfig(sdp_max_iters=0),
                          DomainError, "sdp_max_iters must be >= 1, got 0"),
    "sweep_no_methods": (lambda: sweep(methods=()), DomainError, "sweep needs at least one method"),
    "sweep_repeated_value": (lambda: sweep(axis="P_T_dBm", values=(40, 40.0)),
                             DomainError, "sweep lists axis value 40.0 twice"),
    "sweep_methods_string": (lambda: sweep(methods="proposed"),
                             DomainError, "methods must be a list, got 'proposed'"),
    "state_split": (lambda: BeamformerState(x=np.ones(3), num_bf=4),
                    DimensionError, "state of length (3,) cannot split at 4"),
    "forms_cov_dim": (forms_for_a_mismatched_covariance,
                      DimensionError, "covariance dim 3 is not a positive multiple of M_t = 2"),
    "forms_do_not_stack": (
        lambda: objective(random_state(2, 1, np.random.default_rng(0)),
                          PrecomputedForms(b=np.ones((1, 2)), c=np.ones((1, 2)))),
        DimensionError, "forms b (1, 2) and c (1, 2) do not stack"),
    "state_does_not_match_forms": (
        lambda: objective(random_state(2, 2, np.random.default_rng(0)),
                          PrecomputedForms(b=np.zeros((2, 3)), c=np.zeros((2, 3, 2)))),
        DimensionError, "state split (2, 2) does not match forms (3, 2)"),
    "db_of_negative_power": (lambda: linear_to_db(-1.0),
                             DomainError, "cannot express negative power -1.0 in dB"),
    "db_of_nan": (lambda: linear_to_db(math.nan),
                  DomainError, "cannot express a NaN power in dB"),
    "sdp_obj_empty": (lambda: sdp_problem(obj=np.zeros((0, 0))), DimensionError,
                      "obj must be a non-empty square matrix, got shape (0, 0)"),
    "sdp_obj_not_square": (lambda: sdp_problem(obj=np.ones((2, 3))), DimensionError,
                           "obj must be a non-empty square matrix, got shape (2, 3)"),
    "sdp_obj_not_finite": (lambda: sdp_problem(obj=np.diag([math.nan, 1.0])),
                           DomainError, "obj has a non-finite entry"),
    "sdp_budget": (lambda: sdp_problem(trace_budget=0.0),
                   DomainError, "trace budget must be > 0, got 0.0"),
    "sdp_budget_nan": (lambda: sdp_problem(trace_budget=math.nan),
                       DomainError, "trace budget must be > 0, got nan"),
    "sdp_budget_inf": (lambda: sdp_problem(trace_budget=math.inf),
                       DomainError, "trace_budget must be finite, got inf"),
    "sdp_comm_rhs_nan": (lambda: sdp_problem(comm_rhs=math.nan),
                         DomainError, "comm_rhs must be finite, got nan"),
    "sdp_sense_rhs_inf": (lambda: sdp_problem(sense_rhs=math.inf),
                          DomainError, "sense_rhs must be finite, got inf"),
    "sdp_matrix_shape": (lambda: sdp_problem(comm_mat=np.eye(3)),
                         DimensionError, "comm_mat has shape (3, 3), expected (2, 2)"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_rejects_with_type_and_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
