"""Moderate- and large-deviations asymptotics for two-factor volatility models.

Library layout:

- ``models``: model catalog (Heston, Stein-Stein, power family, constant
  volatility), assumption checks and the moderate-deviations growth
  condition;
- ``families``: the one table of model kinds (preset, default keys, facts)
  and the one dispatch on a model's kind;
- ``invariant``: invariant measures of the fast factor and quadrature;
- ``poisson``: Poisson equations for the fast-factor generator;
- ``rates``: quadratic rate functions and variational minimizers;
- ``ldp``: closed-form large-deviations objects, Fenchel-Legendre transform,
  curvature;
- ``mc``: full-truncation Euler simulation and the table of ``mc`` targets;
- ``asymptotics``: option-price and tail exponents;
- ``config``/``cli``: experiment configuration and the command-line frontend;
- ``acceptance``: the executable acceptance-criteria suite;
- ``errors``: the exception types and the one range check.
"""

from .asymptotics import (AsymptoticQuote, largetime_call_exponent,
                          largetime_put_quote, quote_catalog, rv_option_quotes,
                          smalltime_call_exponent, tail_probability_exponent)
from .errors import (ConfigError, DomainError, GridMismatchError, GrowthError,
                     QuadratureError, SimulationOverflowError,
                     SingularSystemError, UnsupportedModelError)
from .families import family
from .invariant import (InvariantMeasure, gamma_invariant, integrate,
                        measure_moments, speed_measure)
from .ldp import (LdpHestonParams, RealizedVarLdp, curvature,
                  curvature_identity, fenchel_legendre_numeric, heston_lambda,
                  heston_lambda_star, heston_u_star, rv_lambda_inf,
                  rv_lambda_star, rv_mdp_exponent, rv_mgf)
from .mc import (CallEstimate, PathBatch, SimConfig, TailEstimate,
                 estimate_rv_tail, estimate_smalltime_tail, exact_gaussian_call,
                 exact_gaussian_tail, simulate)
from .models import (AssumptionReport, GrowthExponents, ModelSpec,
                     check_assumptions, make_constant_sigma, make_heston,
                     make_power_family, make_stein_stein, mdp_growth_condition)
from .paths import DiscretePath
from .poisson import (PoissonSolution, generator_residual, generator_residuals,
                      solve_poisson_cev)
from .rates import (INFINITE_RATE, LargeTimeParams, QbarResult,
                    contract_two_to_one, endpoint_rate, heston_large_time_params,
                    large_time_params, minimize_endpoint, qbar_integrated,
                    share_large_time_params, small_time_rate_1d, small_time_rate_2d)

__version__ = "0.1.0"
