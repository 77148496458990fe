"""Branching-diffusion chemotaxis models and their hydrodynamic-limit checks.

Four coupled model implementations share one lineage-indexed noise universe:
the individual-based branching diffusion coupled to a chemoattractant field,
the single-line mean-field branching process, the mass-carrying particle, and
the deterministic density/field system -- plus experiments that quantify how
the stochastic models converge to the deterministic one.
"""

from .errors import (CFLViolation, ChemobranchError, ConfigInvalid,
                     DimensionMismatch, EmptyEnsemble, GridMismatch,
                     LineageDepthExceeded, NonFiniteAtom, NonFiniteQuery,
                     NonFiniteState, PicardStalled, PopulationExplosion)
from .field import (Field, GridSpec, Kernel, check_path, deposit,
                    semigroup_step)
from .microscopic import (EventRecord, MicroTrajectory, ModelParams,
                          simulate_lines, simulate_microscopic)
from .meanfield import (MassEnsemble, SelfConsistentField, simulate_hybrid,
                        simulate_mass_ensemble, solve_selfconsistent_field)
from .macroscopic import PksSolution, observed_order, solve_pks
from .population import (EmpiricalMeasure, LineageIndex, PopulationState,
                         empirical, integrate, mean_se, state_distance)
from .randomness import NoiseUniverse
from .registry import DriftSpec, InitialFieldSpec, InitialMeasureSpec, RateSpec
from .analysis import (BumpFunction, ConvergenceReport, TestFunctionBank,
                       coupling_experiment, measure_convergence_experiment,
                       vague_distance, yule_bound_check)

__version__ = "0.1.0"
