"""Identification capacities of state-dependent channels with feedback.

Library surface: channel modeling, optimal state estimation, capacity and
capacity-distortion computation, concatenated feedback ID codes, and the
simulation/oracle harness validating them.
"""

from .channel import (
    StateDMC,
    channel_from_dict,
    channel_to_dict,
    load_channel,
    sample_state_sequence,
    transmit,
    validate_channel,
)
from .estimation import (
    DistortionMatrix,
    DistortionProfile,
    EstimatorTable,
    distortion_profile,
    estimate_sequence,
    feasible_inputs,
    hamming_distortion,
    optimal_estimator,
)
from .capacity import (
    CapacityResult,
    InputDistribution,
    binary_entropy,
    det_capacity_distortion,
    det_feedback_capacity,
    entropy,
    image_size_bound,
    rand_capacity_distortion,
    rand_feedback_capacity,
    rate_of_code,
    shannon_capacity_avg,
    tradeoff_curve,
)
from .typicality import enumerate_typical_set, typical_size_bounds
from .coding import (
    IDFeedbackCode,
    TransmissionCode,
    build_id_code,
    build_transmission_code,
    coloring_value,
    coloring_values,
    verify,
)
from .sim import (
    SimReport,
    TrialOutcome,
    brute_force_estimator_distortion,
    exact_error_probabilities,
    grid_capacity_oracle,
    monte_carlo,
    run_trial,
)
from . import errors, fixtures

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
