"""Monte Carlo estimation of Pickands-type constants and extremal indices
of Brown-Resnick stationary processes built from Gaussian and Levy inputs."""

from .bounds import (
    BoundResult,
    Ln8Report,
    check_ln8,
    gaussian_lower_bound,
    gaussian_power_bound,
    levy_h0_bound,
    levy_lower_bound,
)
from .estimators import (
    CrosscheckReport,
    EstimateResult,
    TruncationPolicy,
    crosscheck,
    est_argmax,
    est_continuous_dy,
    est_definitional,
    est_dieker_yakir,
    est_difference,
    est_exceedance,
    est_time_reversed,
)
from .maxstable import (
    FddEstimate,
    TailProcessSample,
    est_candidate_theta,
    est_extremal_index_blocks,
    fdd_probability,
    sample_tail_process,
)
from .models import (
    GridSpec,
    JumpLaw,
    LevyModel,
    ModelError,
    PathSample,
    UnsupportedModelError,
    VarianceFunction,
    gaussian_grid_cov,
    laplace_exponent,
    levy_lambda,
    sample_gaussian_path,
    sample_levy_path,
    variance_at,
)
from .smallball import (
    SmallBallEstimate,
    SmallBallExtrapolation,
    est_smallball_prob,
    smallball_extrapolate,
    suggested_cutoff,
)

__version__ = "0.1.0"
