"""Simulator and joint-optimization engine for IRS-assisted THz downlinks."""

from .allocation import AllocationResult, solve_allocation
from .bcs import (
    SearchResult,
    Solution,
    baseline_mini_dis,
    baseline_ran_loc,
    baseline_ran_phi,
    bcs_solve,
    candidate_grid,
    inner_solve,
)
from .channel import (
    Atmosphere,
    SubBand,
    ValidityWarning,
    absorption_coefficient,
    cascaded_gain,
    reflected_channel,
    saturated_vapor_pressure,
    subband_rate,
    water_vapor_mixing_ratio,
)
from .config import ConfigError, ExperimentConfig, config_from_dict, config_to_dict, load_config
from .experiment import (
    RunReport,
    absorption_peaks,
    absorption_sweep,
    auto_band_plan,
    draw_ue_positions,
    load_report,
    resolve_bands,
    run_experiment,
    run_single,
)
from .geometry import (
    IrsPlacement,
    PhaseVector,
    Scene,
    optimal_single_ue_phases,
    path_length,
    solve_min_total_distance,
    solve_single_ue_placement,
    steering_phase_profile,
)
from .phase_opt import (
    ScaResult,
    SgdResult,
    Surrogate,
    effective_vector,
    exact_values,
    sca_phase_optimize,
    sgd_solve,
    surrogate,
    surrogate_values,
)
from .rng import SplitMix64, stream

__version__ = "0.1.0"
