"""Resource measures (coherence, entanglement, magic), their Haar-ensemble
reference values, and resource-gap estimation between ensembles.

Every measure and every Haar reference is in bits, except coherence-hs, which
is dimensionless. Each measure's rules live on ``ResourceMeasure``: its
parameters (constructor), the qubit counts it can be evaluated at (``check``,
which ``cost`` runs, so the sampling engine refuses a stream before it draws)
and its growth-table row (``resource``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionCapExceeded, ValidationError
from .linalg import abs2, shannon_bits
from .sampling import paired_value_means

if TYPE_CHECKING:
    from .ensembles import EnsembleSpec
    from .linalg import PartitionSpec, PureState
    from .randprims import RngSeed
    from .sampling import MeanAccumulator

__all__ = [
    "ResourceMeasure",
    "MEASURE_NAMES",
    "entanglement_entropy",
    "collision_entanglement",
    "stabilizer_renyi_entropy",
    "pauli_basis",
    "haar_expected",
    "HaarExpectation",
    "estimate_gap",
    "GapReport",
    "measure_pure_amps",
    "pauli_power_sums",
]

# a time bound, which bytes do not express: n 4^n work per state, about 0.2 s at n = 12
MAGIC_MAX_QUBITS = 12
# (row, X-part, x) entries per slice of the power-sum kernel, so memory does
# not grow with n. Of 2^12..2^15 on a 2-core VM, 2^14 was the fastest or
# within noise at n = 3..12, and up to 1.3x faster than 2^13 at n = 5..12.
PAULI_SLICE_ENTRIES = 1 << 14
PAULI_BASIS_MAX_QUBITS = 4  # dense (4^n, 2^n, 2^n) Pauli stack; a helper only benchmark set-up and tests call

MEASURE_COHERENCE_RE = "coherence-re"
MEASURE_COHERENCE_HS = "coherence-hs"
MEASURE_ENTANGLEMENT = "entanglement-entropy"
MEASURE_COLLISION_ENT = "collision-entanglement"
MEASURE_MAGIC = "stabilizer-renyi"

MEASURE_NAMES = (
    MEASURE_COHERENCE_RE,
    MEASURE_COHERENCE_HS,
    MEASURE_ENTANGLEMENT,
    MEASURE_COLLISION_ENT,
    MEASURE_MAGIC,
)


@dataclass(frozen=True)
class ResourceMeasure:
    """A named measure plus its parameters (partition or Renyi index). The two
    entanglement measures take a partition and require one; the others refuse one."""

    name: str
    partition: PartitionSpec | None = None
    alpha: int | None = None

    def __post_init__(self):
        if self.name not in MEASURE_NAMES:
            raise ValidationError(f"unknown measure {self.name!r}; choose from {MEASURE_NAMES}")
        partitioned = self.name in (MEASURE_ENTANGLEMENT, MEASURE_COLLISION_ENT)
        if partitioned != (self.partition is not None):
            raise ValidationError(f"{self.name} {'requires a' if partitioned else 'takes no'} partition")
        if self.name == MEASURE_MAGIC:
            if self.alpha is None or self.alpha < 2:
                raise ValidationError("stabilizer-renyi requires alpha >= 2")

    @property
    def resource(self) -> str:
        """The growth table's row: coherence, entanglement or magic."""
        if self.name in (MEASURE_COHERENCE_RE, MEASURE_COHERENCE_HS):
            return "coherence"
        return "magic" if self.name == MEASURE_MAGIC else "entanglement"

    def label(self) -> str:
        if self.name == MEASURE_MAGIC:
            return f"{self.name}({self.alpha})"
        if self.partition is not None:
            return f"{self.name}[{self.partition.n_a}:{self.partition.n_b}]"
        return self.name

    def check(self, n: int) -> None:
        """Reject a qubit count the measure cannot be evaluated at."""
        if self.partition is not None:
            self.partition.check(n)
        if self.name == MEASURE_MAGIC:
            _check_magic_qubits(n)

    def statistic(self, block: np.ndarray, n: int) -> np.ndarray:
        """The raw statistic as a block statistic for ``paired_value_means``."""
        return measure_pure_amps(self, block, n)

    def cost(self, rows: int, n: int) -> tuple[int, int]:
        """Declared (peak bytes, multiply-adds) of ``statistic`` on a (rows, 2^n) complex block,
        beyond it: |amps|^2 and its logs; the Schmidt Gram with, as a bound for both partition
        measures, a solver copy and d_A^3 spectrum work; or a Pauli slice and n 4^n work a row.
        Refuses, through ``check``, an n the statistic cannot be evaluated at."""
        self.check(n)
        d = 2**n
        if self.name in (MEASURE_COHERENCE_RE, MEASURE_COHERENCE_HS):
            return 32 * d * rows, (12 if self.name == MEASURE_COHERENCE_RE else 4) * d * rows
        if self.partition is not None:
            side = 2**self.partition.n_a
            return 8 * rows * side * (4 * side + 5), rows * (4 * d * side + 8 * side**3 + 10 * side)
        groups = -(-n // _WHT_GROUP_BITS)
        transform = sum(2 ** ((n + j) // groups) for j in range(groups))
        return 64 * PAULI_SLICE_ENTRIES + 8 * rows, rows * d * d * (6 + transform + self.alpha)


# ---------------------------------------------------------------------------
# Pointwise measures


def _reduced_gram(amps: np.ndarray, part: PartitionSpec) -> np.ndarray:
    """Smaller-side reductions M M^dagger of pure states (..., 2^n), real for real rows."""
    mat = amps.reshape(amps.shape[:-1] + (2**part.n_a, 2**part.n_b))
    return mat @ mat.conj().swapaxes(-1, -2)


def _schmidt_probs(amps: np.ndarray, part: PartitionSpec) -> np.ndarray:
    """Squared Schmidt coefficients of pure states (..., 2^n) across the
    partition: eigenvalues of the smaller-side Gram matrix, ascending."""
    return np.linalg.eigvalsh(_reduced_gram(amps, part))


def entanglement_entropy(psi: PureState, part: PartitionSpec) -> float:
    """Entropy of either reduction of a pure state across the partition, in bits."""
    return measure_pure_amps(ResourceMeasure(MEASURE_ENTANGLEMENT, partition=part), psi.amps, psi.n)


def reduced_purity(psi: PureState, part: PartitionSpec) -> float:
    """Tr(rho_A^2) of the smaller-side reduction."""
    return measure_pure_amps(ResourceMeasure(MEASURE_COLLISION_ENT, partition=part), psi.amps, psi.n)


def collision_entanglement(psi: PureState, part: PartitionSpec) -> float:
    """Renyi-2 entropy of the reduction: -log2 Tr(rho_A^2)."""
    return float(-np.log2(reduced_purity(psi, part)))


_PAULI_1 = (
    np.eye(2, dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


@lru_cache(maxsize=8)
def pauli_basis(n: int) -> np.ndarray:
    """All 4^n Pauli strings as a (4^n, 2^n, 2^n) stack (identity first)."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    if n > PAULI_BASIS_MAX_QUBITS:
        raise DimensionCapExceeded(f"dense Pauli stack capped at n <= {PAULI_BASIS_MAX_QUBITS}")
    mats = [np.array([[1.0 + 0j]])]
    for _ in range(n):
        mats = [np.kron(m, p) for m in mats for p in _PAULI_1]
    out = np.stack(mats)
    out.setflags(write=False)
    return out


def _check_magic_qubits(n: int) -> None:
    """Reject qubit counts outside the X-part power-sum route, before it allocates."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    if n > MAGIC_MAX_QUBITS:
        raise DimensionCapExceeded(f"Pauli power sums capped at n <= {MAGIC_MAX_QUBITS}, got n = {n}")


@lru_cache(maxsize=8)
def _hadamard(bits: int) -> np.ndarray:
    """Unnormalised 2^bits Walsh-Hadamard matrix, bits <= _WHT_GROUP_BITS."""
    h = np.ones((1, 1))
    for _ in range(bits):
        h = np.kron(h, [[1.0, 1.0], [1.0, -1.0]])
    return h


# Bits transformed per BLAS matmul: 32x32 Hadamard blocks ran 2-5x faster
# than a radix-2 numpy butterfly, whose strided half-rows are short at low bits.
_WHT_GROUP_BITS = 5


def _walsh_hadamard(g: np.ndarray, n: int) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform over the last axis (2^n) of a real
    array, in balanced groups of at most _WHT_GROUP_BITS bits; flat leading axes."""
    groups = -(-n // _WHT_GROUP_BITS)
    low = 1  # x-bits below ``low`` are transformed
    for j in range(groups):
        bits = (n + j) // groups
        h = _hadamard(bits)
        g = g.reshape(-1, 2**bits) @ h if low == 1 else h @ g.reshape(-1, 2**bits, low)
        low <<= bits
    return g


def _power_sum(ev: np.ndarray, alpha: int) -> np.ndarray:
    """sum ev^(2 alpha) along the last axis of a 2-d array, by products
    (``**`` takes pow's slow path) and one row-wise dot; squares ``ev`` in place."""
    sq = np.multiply(ev, ev, out=ev)
    acc = sq
    for _ in range(alpha - 2):
        acc = acc * sq
    return np.einsum("ij,ij->i", acc, sq)


def pauli_power_sums(amps: np.ndarray, n: int, alpha: int) -> np.ndarray:
    """(1/2^n) sum_P <psi|P|psi>^{2 alpha} for each row of a (rows, 2^n) block.

    The sum runs over X-parts a and Z-parts b of <X^a Z^b>^(2 alpha), where
    <X^a Z^b> = sum_x (-1)^(b.x) f_a(x) with f_a(x) = conj(psi[x ^ a]) psi[x].
    Since f_a(x ^ a) = conj f_a(x), the transform of Re f_a vanishes where
    popcount(a & b) is odd and that of Im f_a where it is even,
    and the Hermitian Pauli string i^popcount(a & b) X^a Z^b has the square
    <X^a Z^b>^2 = (Re or Im part)^2. So one real Walsh-Hadamard transform of
    g_a = Re f_a + Im f_a gives every squared expectation: O(n 4^n) work per
    state, with slices of at most PAULI_SLICE_ENTRIES (row, a, x) entries.
    """
    _check_magic_qubits(n)
    block = np.reshape(amps, (-1, 2**n))
    conj = np.conj(block) if np.iscomplexobj(block) else block
    d = 2**n
    rows = max(1, PAULI_SLICE_ENTRIES // (d * d))
    width = min(d, PAULI_SLICE_ENTRIES // d)
    x = np.arange(d)
    out = np.zeros(len(block))
    for a0 in range(0, d, width):
        idx = x[a0 : a0 + width, None] ^ x
        for lo in range(0, len(block), rows):
            f = np.take(conj[lo : lo + rows], idx, axis=1)  # conj(psi[x ^ a]) at [row, a, x]
            f *= block[lo : lo + rows, None, :]
            g = f.real + f.imag if np.iscomplexobj(f) else f
            out[lo : lo + rows] += _power_sum(_walsh_hadamard(g, n).reshape(len(g), -1), alpha)
    return out / 2**n


def stabilizer_renyi_entropy(psi: PureState, alpha: int) -> float:
    """Magic monotone of a pure state from 2*alpha-th powers of its Pauli expectations, in bits."""
    return measure_pure_amps(ResourceMeasure(MEASURE_MAGIC, alpha=alpha), psi.amps, psi.n)


# ---------------------------------------------------------------------------
# Haar-ensemble reference values


@dataclass(frozen=True)
class HaarExpectation:
    """Closed-form or leading-order Haar average of a measure.

    ``band`` brackets the finite-size value when only an asymptotic form is
    available; ``units`` is "bits", except "dimensionless" for coherence-hs.
    """

    value: float
    units: str = "bits"
    exact: bool = True
    band: tuple[float, float] | None = None


_EULER_GAMMA = 0.5772156649015329


@lru_cache(maxsize=None)
def _harmonic_tail(d: int) -> float:
    """sum_{k=2}^{d} 1/k; Euler-Maclaurin beyond 2^20 (exact at double precision).
    Cached per d: at d = 2^20 the sum is a million-term Python loop."""
    if d <= 2**20:
        return float(sum(1.0 / k for k in range(2, d + 1)))
    return math.log(d) + _EULER_GAMMA - 1.0 + 1.0 / (2 * d) - 1.0 / (12 * d * d)


def _pauli_moment_haar(d: int, alpha: int) -> float:
    """E[<P>^{2 alpha}] over Haar states for a fixed traceless Pauli.

    Double-factorial over the odd shifted dimensions; verified against the
    symmetric-subspace projector in the test suite at small (n, alpha).
    """
    num = 1.0
    den = 1.0
    for j in range(1, alpha + 1):
        num *= 2 * j - 1
        den *= d + 2 * j - 1
    return num / den


def haar_magic_proxy(n: int, alpha: int) -> float:
    """-log2 E[2^{(1-alpha) M_alpha}] for Haar states, divided by alpha - 1.

    This is the exact finite-n counterpart of the leading form; the Haar
    average of the Pauli-power sum is 1 + (4^n - 1) * mu_{2 alpha}.
    """
    d = 2**n
    zeta = (1.0 + (d**2 - 1) * _pauli_moment_haar(d, alpha)) / d
    return float(-np.log2(zeta) / (alpha - 1))


def haar_expected(
    measure: str,
    n: int,
    part: PartitionSpec | None = None,
    alpha: int | None = None,
) -> HaarExpectation:
    """Analytic Haar-ensemble expectation of a measure at qubit count n, under ``ResourceMeasure``'s
    rules but without the magic qubit cap, since a closed form has no kernel limit."""
    ResourceMeasure(measure, partition=part, alpha=alpha)
    if part is not None:
        part.check(n)
    d = 2**n
    if measure == MEASURE_COHERENCE_RE:  # the harmonic sum is in nats
        return HaarExpectation(_harmonic_tail(d) / math.log(2))
    if measure == MEASURE_COHERENCE_HS:
        return HaarExpectation(1.0 - 2.0 / (d + 1), units="dimensionless")
    if measure == MEASURE_COLLISION_ENT:
        da, db = 2**part.n_a, 2**part.n_b
        return HaarExpectation(float(-np.log2((da + db) / (d + 1))))
    if measure == MEASURE_ENTANGLEMENT:
        lead = float(min(part.n_a, part.n_b))
        return HaarExpectation(lead, exact=False, band=(lead - 1.0, lead))
    lead = float(n - 2) if alpha == 2 else n / (alpha - 1)
    lo, hi = sorted((lead, haar_magic_proxy(n, alpha)))
    return HaarExpectation(lead, exact=False, band=(lo, hi))


# ---------------------------------------------------------------------------
# Monte-Carlo gap estimation


def measure_pure_amps(measure: ResourceMeasure, amps: np.ndarray, n: int):
    """Raw statistic of pure states given as amplitudes: a float for one
    (2^n,) vector, one value per row for a (rows, 2^n) block.

    For collision-entanglement the raw statistic is the reduced purity; the
    aggregator applies -log2 to the purity mean so the estimate converges to
    the closed-form reference (a direct mean of -log2 purity would not).
    """
    block = np.asarray(amps).reshape(-1, 2**n)
    measure.check(n)
    if measure.name in (MEASURE_COHERENCE_RE, MEASURE_COHERENCE_HS):
        p = abs2(block)
        values = shannon_bits(p) if measure.name == MEASURE_COHERENCE_RE else 1.0 - np.einsum("ij,ij->i", p, p)
    elif measure.name == MEASURE_ENTANGLEMENT:
        values = shannon_bits(_schmidt_probs(block, measure.partition))
    elif measure.name == MEASURE_COLLISION_ENT:  # Tr(rho_A^2) as the Gram matrix's squared Frobenius norm
        values = abs2(_reduced_gram(block, measure.partition)).sum(axis=(1, 2))
    else:
        values = np.log2(pauli_power_sums(block, n, measure.alpha)) / (1 - measure.alpha)
    return float(values[0]) if np.ndim(amps) == 1 else values


def aggregate_measure(measure: ResourceMeasure, acc: MeanAccumulator) -> tuple[float, float]:
    """(mean, stderr) in the measure's reporting units."""
    if measure.name == MEASURE_COLLISION_ENT:
        mean_purity = acc.mean
        se = acc.stderr
        return float(-np.log2(mean_purity)), float(se / (mean_purity * math.log(2)))
    return acc.mean, acc.stderr


@dataclass(frozen=True)
class GapReport:
    """Expected resource of two ensembles and their absolute difference."""

    measure: str
    e_high: tuple[float, float]  # (mean, stderr)
    e_low: tuple[float, float]
    delta: float
    stderr: float
    samples: int

    def __post_init__(self):
        if self.stderr < 0:
            raise ValidationError("stderr must be nonnegative")


def estimate_gap(
    measure: ResourceMeasure,
    e_high: EnsembleSpec,
    e_low: EnsembleSpec,
    samples: int,
    seed: RngSeed | int = 0,
) -> GapReport:
    """Monte-Carlo resource gap with paired generators.

    Chunk c of each ensemble draws from a generator seeded by (seed, c,
    ensemble seed): specs sharing a seed get common random numbers (the gap of
    an ensemble against itself is exactly zero), while distinct ensemble seeds
    give independent streams.
    """
    if e_high.n != e_low.n:
        raise ValidationError("ensembles must share the qubit count")
    acc_high, acc_low = paired_value_means(
        seed, samples, (measure.statistic,) * 2, sources=(e_high, e_low), costs=(measure.cost,) * 2
    )
    mean_h, se_h = aggregate_measure(measure, acc_high)
    mean_l, se_l = aggregate_measure(measure, acc_low)
    delta = abs(mean_h - mean_l)
    stderr = float(math.hypot(se_h, se_l))
    return GapReport(measure.label(), (mean_h, se_h), (mean_l, se_l), delta, stderr, samples)
