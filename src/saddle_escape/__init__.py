"""saddle_escape: first-order methods with vanishing step sizes, and
Lyapunov-Perron stable-manifold certificates at strict saddles.

Layout:

- schedules: step-size sequences (power / constant / geometric) with
  divergent-sum classification.
- objectives: test objectives as gradients and Hessians (no f: the methods
  are first order), and critical-point classification.
- spectral: symmetric eigensplits into stable/unstable blocks and exact
  linear trajectory products.
- methods: gradient descent, mirror descent, proximal point, and the two
  manifold variants, each id resolved to the recursion it runs (the
  Euclidean mirror map and the metric-less intrinsic method run gd's step;
  only the intrinsic metric is settable), plus the run() driver and its
  lockstep run_batch().
- lyapunov_perron: the sequence-space contraction machinery — K1/K2 bounds,
  the operator T on sequences held as (N+1, d) arrays, Picard fixed points,
  shooting cross-checks, and charts.
- harness_cli: JSON-configured experiments and the saddle-escape CLI.
"""

from .schedules import (CONVERGENT, DIVERGENT, ConstantSchedule,
                        GeometricSchedule, PowerSchedule, ScheduleError,
                        StepSchedule, constant, from_config, geometric, power)
from .objectives import (DEGENERATE, LOCAL_MIN_CANDIDATE, NOT_CRITICAL,
                         STRICT_SADDLE, CriticalPointClass, EigensolverError,
                         Objective, ObjectiveError, classify_critical_point,
                         cubic_perturbed_saddle, fig1, quadratic)
from .spectral import (SpectralError, SpectralSplit, classify_coordinate_limit,
                       quadratic_trajectory, split, transition_product)
from .methods import (BUDGET_EXHAUSTED, CONVERGED_TO_POINT, ESCAPED_REGION,
                      METHOD_IDS, STEP_ERROR, BatchResult, ManifoldError,
                      MethodError, MirrorDomainError, RiemannianMetric,
                      Terminal, TrajectoryRecord, make_step, run, run_batch)
from .lyapunov_perron import (CertificateError, ContractionCertificate,
                              LyapunovError, ManifoldChart, PerronProblem,
                              StablePointResult, apply_T, bound_K1, bound_K2, chart,
                              iterate_raw, remainder_from_objective,
                              shooting_oracle, solve_stable_point, sup_distance)
from .harness_cli import (AvoidanceReport, ConfigError, ExperimentAssertionError,
                          ExperimentConfig, avoidance_experiment,
                          build_objective, chart_experiment, emit_plot_data,
                          fig1_experiment, main, single_run_experiment)

__version__ = "0.1.0"
