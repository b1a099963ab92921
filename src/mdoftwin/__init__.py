"""Digital-twin estimation engine for stochastic nonlinear MDOF structures.

Pipeline: simulate a degrading chain system on the fast time-scale
(strong Taylor-1.5), estimate states and stiffness jointly from noisy
accelerations with an unscented Kalman filter (Euler-Maruyama dynamic
model), track the slow-time stiffness evolution with per-parameter
Gaussian-process regression, and forecast parameters and responses.
"""

from .errors import (InvalidParameterError, MdofTwinError, NumericError,
                     TrainingError)
from .models import (DegradationSchedule, MdofSystem, StateSpaceModel,
                     acceleration_model, build_duffing_2dof, build_dvp_7dof,
                     degraded_stiffness, to_state_space)
from .sde import IntegratorConfig, Trajectory, corrupt_with_snr, simulate_window
from .ukf import (FilterResult, GaussianBelief, NoiseModel, UkfParams,
                  build_process_noise, predict, run_filter, sigma_points,
                  ukf_weights, update)
from .gpr import (GpModel, GpPrediction, GpTrainConfig, Kernel,
                  track_parameters, train)
from .gpr import predict as gp_predict
from .twin import (CampaignConfig, MeasurementWindow, ResponseEnsemble,
                   TwinSnapshot, UkfRunConfig, assimilate_window,
                   filter_window, new_snapshot, predict_parameters,
                   predict_response, predict_response_ensemble, run_campaign)

__version__ = "0.1.0"
