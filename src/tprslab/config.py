"""Global numeric knobs and caps.

The dense-dimension cap has one knob, the TPRS_DIM_CAP environment variable,
read at every check, so whole experiment runs can be resized without touching
call sites. The table cap on 2^n is fixed.
"""

from __future__ import annotations

import os

from .errors import DimensionCapExceeded, DomainCapExceeded, ValidationError

ENV_DIM_CAP = "TPRS_DIM_CAP"

DEFAULT_DIM_CAP = 4096          # largest dense operator dimension (2^(n t))
DEFAULT_TABLE_CAP = 2**20       # cap on 2^n: a permutation table or a state vector
DEFAULT_BUDGET_CONSTANT = 10.0  # c in the runtime-budget test cost <= c * T(n)
DEFAULT_KAPPA = 1.0             # rendering constant for asymptotic table entries

# Tolerance ladder: tight at construction, looser for derived property checks.
NORM_TOL = 1e-12
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = 1e-12


def dim_cap() -> int:
    """The dense-dimension cap: TPRS_DIM_CAP if set, else DEFAULT_DIM_CAP."""
    env = os.environ.get(ENV_DIM_CAP)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValidationError(f"{ENV_DIM_CAP} must be an integer, got {env!r}") from exc
    return DEFAULT_DIM_CAP


def check_dim(n: int, t: int) -> int:
    """Dense dimension 2^(n t) of t copies of n qubits; raises
    DimensionCapExceeded above the cap. Call it before allocating."""
    limit = dim_cap()
    dim = (2**n) ** t
    if dim > limit:
        raise DimensionCapExceeded(f"2^({n}*{t}) exceeds dimension cap {limit}")
    return dim


def check_reduced_dim(n: int, t: int) -> int:
    """Dense dimension min(2^n, 2t)^t of the problem that the relabelling
    symmetry reduces the exact t-copy moments of n qubits to: every pair of
    types spans at most 2t values, so its orbits and patterns are those of
    min(2^n, 2t) values. Raises DimensionCapExceeded above the cap; call it
    before enumerating."""
    limit = dim_cap()
    values = min(2**n, 2 * t)
    dim = values**t
    if dim > limit:
        raise DimensionCapExceeded(f"reduced problem {values}^{t} exceeds dimension cap {limit}")
    return dim


def check_domain(n: int) -> int:
    """Size 2^n of the n-bit domain that a permutation table or a state vector
    spans; raises DomainCapExceeded above DEFAULT_TABLE_CAP. Call it before allocating."""
    size = 2**n
    if size > DEFAULT_TABLE_CAP:
        raise DomainCapExceeded(f"2^{n} exceeds table cap {DEFAULT_TABLE_CAP}")
    return size
