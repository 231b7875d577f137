"""Path-interference minimization for RIS-aided bistatic sensing systems.

Joint optimization of a unit-modulus space-time analog beamformer and RIS
phase shifts (Riemannian Levenberg–Marquardt on the product of circles) and
of the transmit statistical covariance (small SDP) under communication-SNR and
sensing-SNDR constraints, plus a seeded Monte Carlo benchmark harness.
"""

from .bccd import (BccdConfig, BccdIteration, BccdResult, BccdStart, bccd_solve, init_rss,
                   seeded_start)
from .bench import (Method, SweepSpec, TrialRecord, run_sweep, run_trial,
                    trial_seed, write_records_csv)
from .linalg import EvdResult, hermitian_evd
from .metrics import (PowerBreakdown, adc_snr, comm_snr, dynamic_range,
                      power_breakdown, power_noise, sndr)
from .rcg import (BeamformerState, PrecomputedForms, RcgConfig, RcgResult,
                  euclid_grad, objective, precompute_forms, random_state,
                  rcg_solve)
from .scenario import (ChannelSet, ScenarioConfig, db_to_linear, dbm_to_watt,
                       desk_bench_scenario, desk_scenario, generate_channels,
                       linear_to_db, load_config)
from .sdp import SdpProblem, SdpSolution, assemble_p2, solve_sdp
from .selfcheck import self_check
from .sysmodel import (BeamProducts, EffectiveChannels, beam_products,
                       build_effective_channels)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
