"""Numerics lab for runtime-bounded pseudorandom state ensembles.

Builds subset and subset-phase state ensembles with keyed or truly random
primitives, computes their copy-moment operators exactly or by Monte Carlo,
evaluates coherence / entanglement / magic resource measures against Haar
references, and checks the quantitative distance and resource-gap bounds at
desk scale.
"""

__version__ = "0.1.0"

from .linalg import PartitionSpec, PureState, SymmetricOperator, symmetric_projector, trace_distance
from .randprims import KeyedPermutation, PhaseFunction, RngSeed
from .ensembles import (
    EnsembleSpec,
    SubsetSpec,
    advise_copies,
    advise_subset_size,
    build_subset_phase_state,
    build_subset_state,
    exact_subset_moment,
    exact_subset_phase_moment,
    haar_moment,
    mc_ensemble_moment,
)
from .resources import ResourceMeasure, estimate_gap, haar_expected, stabilizer_renyi_entropy
from .distinguishers import estimate_advantage, hybrid_experiment
from .growth import GrowthClass, check_closure, check_repetition_consistency, is_negligible, table_lower_bound
from .bounds import (
    coherence_bound_check,
    empirical_prop_check,
    entanglement_bound_check,
    magic_bound_check,
    subset_distance_bound,
    subset_phase_distance_bound,
    verify_distance_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
