"""Estimation-bound analysis and beamforming design for semi-passive IRS
sensing: closed-form DoA and response-matrix bounds, element/sensor
allocation, a joint beamforming optimizer with an SDP fallback on its own
interior-point solver, and a sweep harness."""

from .allocation import (AllocationDomainError, AllocationResult,
                         allocate_exhaustive, allocate_optimal,
                         allocate_suboptimal)
from .ao import (AoResult, DegenerateObjectiveError, SubproblemError,
                 ao_minimize_crb, gaussian_randomization, irs_subproblem,
                 sdr_objective, transmit_closed_form, transmit_subproblem)
from .arrays import centered_index, large_scale_path_loss, target_steering, ula_steering
from .channel import rician_channel
from .config import (ChannelRealization, PointTargetScene, SystemConfig,
                     db_to_linear, dbm_to_watt, derive_seed, make_rng, path_gain,
                     point_scene)
from .conic import (ConicProgram, ConicSolution, KktResiduals, kkt_residuals,
                    solve)
from .extended import (EstimabilityError, ExtendedCrbReport, crb_extended,
                       crb_extended_iso, crb_extended_opt, crb_fully_passive,
                       crb_fully_passive_opt, gap_db, optimal_transmit_extended,
                       semi_passive_preferred)
from .pointcrb import (PhaseProfile, TransmitCovariance, covariance,
                       crb_point_closed, profile_vector, single_antenna_optimum)
from .sweep import SweepRecord, SweepSpec, emit_csv, load_config, read_csv, run_sweep

__version__ = "0.1.0"
