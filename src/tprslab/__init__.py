"""Numerics lab for runtime-bounded pseudorandom state ensembles.

Builds subset and subset-phase state ensembles with keyed or truly random
primitives, computes their copy-moment operators exactly or by Monte Carlo,
evaluates coherence / entanglement / magic resource measures against Haar
references, and checks the quantitative distance and resource-gap bounds at
desk scale.

``import tprslab`` loads no submodule and not numpy: each exported name (and
each submodule) is imported from its module on first access (PEP 562), so a
caller pays only for the modules it uses. Names are looked up on their module
at every access, never cached here, so a module attribute replaced at run
time (as a tracer does) is what ``tprslab.<name>`` returns.
"""

import sys

__version__ = "0.1.0"

# exported names by the submodule that defines them; a submodule is itself exported
_EXPORTS = {
    "linalg": ("PartitionSpec", "SymmetricOperator", "symmetric_projector", "trace_distance"),
    "randprims": ("KeyedPermutation", "PhaseFunction", "RngSeed"),
    "ensembles": ("EnsembleSpec", "haar_moment", "mc_ensemble_moment"),
    "resources": ("ResourceMeasure", "estimate_gap", "haar_expected"),
    "distinguishers": ("estimate_advantage", "hybrid_experiment"),
    "growth": (
        "GrowthClass",
        "advise_copies",
        "advise_subset_size",
        "check_closure",
        "check_repetition_consistency",
        "is_negligible",
        "table_lower_bound",
    ),
    "bounds": (
        "coherence_bound_check",
        "empirical_prop_check",
        "entanglement_bound_check",
        "magic_bound_check",
        "subset_distance_bound",
        "subset_phase_distance_bound",
        "verify_distance_bound",
    ),
    "config": (),
    "errors": (),
    "forkmap": (),
    "sampling": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ takes the import statement's route, so -X importtime lists the module
    __import__(f"{__name__}.{module}")
    loaded = sys.modules[f"{__name__}.{module}"]
    return loaded if name == module else getattr(loaded, name)


def __dir__() -> list[str]:
    return list(__all__)
