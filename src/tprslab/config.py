"""Global numeric knobs and caps.

Every route declares its peak bytes next to its kernel, computed without
allocating, and ``check_budget`` compares them with one knob, the TPRS_MEM_CAP
environment variable (bytes), read at every check, so whole experiment runs can
be resized without touching call sites. The table cap on 2^n is fixed.
"""

from __future__ import annotations

import os

from .errors import DimensionCapExceeded, DomainCapExceeded, ValidationError

ENV_MEM_CAP = "TPRS_MEM_CAP"
RETIRED_DIM_CAP = "TPRS_DIM_CAP"  # a dimension cap, replaced by the byte budget

# Declared peak bytes a route may reach. 1 GiB admits every size the tests and CI
# run: the exact distance route to t = 6 at n = 20 (0.66 GB declared) and a Haar
# moment at n = 6, t = 2 from 1000 samples (0.47 GB).
DEFAULT_MEM_CAP = 1 << 30
DEFAULT_TABLE_CAP = 2**20       # cap on 2^n: a permutation table or a state vector
DEFAULT_BUDGET_CONSTANT = 10.0  # c in the runtime-budget test cost <= c * T(n)
DEFAULT_KAPPA = 1.0             # rendering constant for asymptotic table entries

# Tolerances of the moment operator's checks, and the floor below which an eigenvalue counts as 0.
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = 1e-12


def mem_cap() -> int:
    """The byte budget: TPRS_MEM_CAP if set, else DEFAULT_MEM_CAP. A set
    TPRS_DIM_CAP is rejected, so a run sized by the old knob fails loudly."""
    if RETIRED_DIM_CAP in os.environ:
        raise ValidationError(f"{RETIRED_DIM_CAP} is retired; set {ENV_MEM_CAP}, a budget in bytes, instead")
    env = os.environ.get(ENV_MEM_CAP)
    if env is None:
        return DEFAULT_MEM_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValidationError(f"{ENV_MEM_CAP} must be a positive integer number of bytes, got {env!r}")
    return cap


def check_budget(what: str, peak_bytes: int) -> int:
    """The one budget check: raises DimensionCapExceeded when a route's declared
    peak bytes exceed TPRS_MEM_CAP. Call it before allocating."""
    limit = mem_cap()
    if peak_bytes > limit:
        raise DimensionCapExceeded(f"{what} needs {peak_bytes:,} bytes, over the {ENV_MEM_CAP} budget of {limit:,}")
    return peak_bytes


# a fixed cap, not a cost: dense rows span the whole domain until subset rows are held sparse
def check_domain(n: int) -> int:
    """Size 2^n of the n-bit domain that a permutation table or a state vector
    spans; raises DomainCapExceeded above DEFAULT_TABLE_CAP. Call it before allocating."""
    size = 2**n
    if size > DEFAULT_TABLE_CAP:
        raise DomainCapExceeded(f"2^{n} exceeds table cap {DEFAULT_TABLE_CAP}")
    return size
