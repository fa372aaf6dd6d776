"""Planar robot localization with online fuzzy tuning of EKF noise covariances."""

__version__ = "0.1.0"

from .adaptation import AdaptationConfig, CovarianceAdapter
from .anfis import AnfisNet
from .ekf import CovPair, GaussianState, InnovationRecord
from .errors import FuzzylocError
from .metrics import (
    EnsembleReport,
    average_nees,
    build_report,
    chi2_band,
    chi2_ppf,
    in_band_fraction,
    nees,
    rmse,
)
from .models import (
    ControlInput,
    Landmark,
    LandmarkMap,
    Measurement,
    NoiseSpec,
    Pose,
    wrap_angle,
)
from .simulator import (
    VARIANTS,
    RunDigest,
    RunLog,
    Scenario,
    default_scenario,
    load_scenario,
    run_monte_carlo,
    run_once,
    save_scenario,
)

__all__ = [
    "AdaptationConfig",
    "AnfisNet",
    "ControlInput",
    "CovPair",
    "CovarianceAdapter",
    "EnsembleReport",
    "FuzzylocError",
    "GaussianState",
    "InnovationRecord",
    "Landmark",
    "LandmarkMap",
    "Measurement",
    "NoiseSpec",
    "Pose",
    "RunDigest",
    "RunLog",
    "Scenario",
    "VARIANTS",
    "average_nees",
    "build_report",
    "chi2_band",
    "chi2_ppf",
    "default_scenario",
    "in_band_fraction",
    "load_scenario",
    "nees",
    "rmse",
    "run_monte_carlo",
    "run_once",
    "save_scenario",
    "wrap_angle",
    "__version__",
]
