"""Resource measures (coherence, entanglement, magic), their Haar-ensemble
reference values, and resource-gap estimation between ensembles.

All measures report base-2 values. The one deliberate exception is the Haar
coherence reference, which is a harmonic sum whose derivation carries natural
log units; it is returned verbatim with its units flagged, and Monte-Carlo
comparisons convert to matching units instead of asserting a base.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionCapExceeded, NoAnalyticForm, ValidationError
from .ensembles import EnsembleSpec
from .linalg import DensityOperator, PartitionSpec, PureState, shannon_bits, von_neumann_entropy
from .randprims import RngSeed, as_seed
from .sampling import SUB_BLOCK_AMPS, MeanAccumulator, paired_value_means

__all__ = [
    "ResourceMeasure",
    "MEASURE_NAMES",
    "coherence_relative_entropy",
    "coherence_hs_distance",
    "entanglement_entropy",
    "collision_entanglement",
    "stabilizer_renyi_entropy",
    "pauli_basis",
    "pauli_expectations_pure",
    "haar_expected",
    "HaarExpectation",
    "estimate_gap",
    "GapReport",
    "measure_pure_amps",
    "pauli_power_sums",
    "pauli_power_trace",
]

MAGIC_MAX_QUBITS = 10  # Pauli-spectrum route: a (2^n, 2^n) complex buffer per state, 16 MiB at n = 10
PAULI_BASIS_MAX_QUBITS = 4  # dense (4^n, 2^n, 2^n) Pauli stack

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
    """A named measure plus its parameters (partition or Renyi index)."""

    name: str
    partition: PartitionSpec | None = None
    alpha: int | None = None

    def __post_init__(self):
        if self.name not in MEASURE_NAMES:
            raise ValidationError(f"unknown measure {self.name!r}")
        if self.name in (MEASURE_ENTANGLEMENT, MEASURE_COLLISION_ENT) and self.partition is None:
            raise ValidationError(f"{self.name} requires a partition")
        if self.name == MEASURE_MAGIC:
            if self.alpha is None or self.alpha < 2:
                raise ValidationError("stabilizer-renyi requires alpha >= 2")

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


# ---------------------------------------------------------------------------
# Pointwise measures


def _diag_probs(rho: DensityOperator) -> np.ndarray:
    return np.clip(rho.diagonal(), 0.0, None)


def coherence_relative_entropy(rho: DensityOperator) -> float:
    """C(rho) = H(diag rho) - H(rho), in bits, in [0, n]."""
    return float(shannon_bits(_diag_probs(rho))) - von_neumann_entropy(rho)


def coherence_hs_distance(rho: DensityOperator) -> float:
    """1 - sum_x <x|rho|x>^2, in [0, 1 - 2^-n]."""
    diag = _diag_probs(rho)
    return float(1.0 - np.sum(diag**2))


def abs2(a: np.ndarray) -> np.ndarray:
    """|a|^2 elementwise, with no hypot or sqrt: a*a for real a, re^2 + im^2 for complex a."""
    return a.real * a.real + a.imag * a.imag if np.iscomplexobj(a) else a * a


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
    """Reject qubit counts outside the Pauli-spectrum route, before it allocates."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    if n > MAGIC_MAX_QUBITS:
        raise DimensionCapExceeded(f"Pauli spectrum capped at n <= {MAGIC_MAX_QUBITS}")


@lru_cache(maxsize=4)
def _spectrum_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(xor, phase, order) for the Walsh-Hadamard route at n qubits.

    xor[a, x] = a ^ x; phase[a, b] = i^popcount(a & b), since the Pauli string
    with X-part a and Z-part b is i^popcount(a & b) X^a Z^b; order[p] is the
    flat (a, b) index of ``pauli_basis(n)[p]`` (I, X, Y, Z have X-bit 0, 1, 1, 0
    and Z-bit 0, 0, 1, 1, and the first qubit is the most significant bit).
    """
    idx = np.arange(2**n)
    both = idx[:, None] & idx[None, :]
    ones = np.zeros_like(both)
    for j in range(n):
        ones += (both >> j) & 1
    a = b = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        a = (2 * a[:, None] + np.array([0, 1, 1, 0])).ravel()
        b = (2 * b[:, None] + np.array([0, 0, 1, 1])).ravel()
    return idx[:, None] ^ idx[None, :], np.array([1, 1j, -1, -1j])[ones % 4], a * 2**n + b


@lru_cache(maxsize=8)
def _hadamard(bits: int) -> np.ndarray:
    """Unnormalised 2^bits Walsh-Hadamard matrix (complex, for BLAS)."""
    h = np.ones((1, 1), dtype=np.complex128)
    for _ in range(bits):
        h = np.kron(h, [[1, 1], [1, -1]])
    return h


# Bits transformed per BLAS matmul: 32x32 Hadamard blocks ran 2-5x faster
# than a radix-2 numpy butterfly, whose strided half-rows are short at low bits.
_WHT_GROUP_BITS = 5


def _pauli_spectrum(f: np.ndarray, n: int) -> np.ndarray:
    """Signed Pauli expectations, in ``pauli_basis`` order, from f[..., a, x] = rho[x, x ^ a].

    Tr(X^a Z^b rho) = sum_x (-1)^(b.x) rho[x, x ^ a] is the Walsh-Hadamard
    transform of f over x, taken a few bits at a time: O(n 4^n) work per
    state against O(8^n) for a contraction with the dense Pauli stack.
    """
    _, phase, order = _spectrum_tables(n)
    lead, d = f.shape[:-2], 2**n
    low = 1  # x-bits below ``low`` are transformed
    while low < d:
        bits = min(_WHT_GROUP_BITS, n - low.bit_length() + 1)
        h = _hadamard(bits)
        f = f.reshape(-1, 2**bits) @ h if low == 1 else h @ f.reshape(-1, 2**bits, low)
        low <<= bits
    signed = (f.reshape(lead + (d, d)) * phase).real
    return signed.reshape(lead + (d * d,))[..., order]


def pauli_expectations_pure(amps: np.ndarray, n: int) -> np.ndarray:
    """<psi|P|psi> for every Pauli string P, in ``pauli_basis`` order (real
    for valid states): shape (4^n,) for one (2^n,) vector, (rows, 4^n) for a
    (rows, 2^n) block. Reaches n <= MAGIC_MAX_QUBITS; no dense basis is built.
    """
    _check_magic_qubits(n)
    block = np.reshape(amps, (-1, 2**n))
    f = np.take(block, _spectrum_tables(n)[0], axis=1)  # psi[x ^ a] at [row, a, x]
    np.conjugate(f, out=f)
    f *= block[:, None, :]
    ev = _pauli_spectrum(f, n)
    return ev[0] if np.ndim(amps) == 1 else ev


def _power_sum(ev: np.ndarray, alpha: int) -> np.ndarray:
    """sum_P ev^(2 alpha) along the last axis, by products (``**`` takes pow's slow path)."""
    sq = ev * ev
    acc = sq
    for _ in range(alpha - 1):
        acc = acc * sq
    return acc.sum(axis=-1)


def pauli_power_sums(amps: np.ndarray, n: int, alpha: int) -> np.ndarray:
    """(1/2^n) sum_P <psi|P|psi>^{2 alpha} for each row of a (rows, 2^n) block.

    One ``pauli_expectations_pure`` call per slice of rows: a slice holds at
    most SUB_BLOCK_AMPS spectrum entries (one state above that), so the
    (rows, 2^n, 2^n) transform buffer and the (rows, 4^n) expectations stay
    bounded whatever the block size.
    """
    block = np.reshape(amps, (-1, 2**n))
    step = max(1, SUB_BLOCK_AMPS // 4**n)
    out = np.empty(len(block))
    for lo in range(0, len(block), step):
        out[lo : lo + step] = _power_sum(pauli_expectations_pure(block[lo : lo + step], n), alpha)
    return out / 2**n


def pauli_power_trace(state, alpha: int) -> float:
    """(1/2^n) sum_P Tr(P rho)^{2 alpha} of a PureState or DensityOperator."""
    if isinstance(state, PureState):
        return float(pauli_power_sums(state.amps, state.n, alpha)[0])
    _check_magic_qubits(state.n)
    f = state.mat[np.arange(2**state.n), _spectrum_tables(state.n)[0]]  # rho[x, x ^ a] at [a, x]
    return float(_power_sum(_pauli_spectrum(f, state.n), alpha)) / 2**state.n


def stabilizer_renyi_entropy(state, alpha: int) -> float:
    """Magic monotone from 2*alpha-th powers of Pauli expectations, in bits.

    Accepts a PureState or a DensityOperator; mixed inputs are allowed but
    flagged, since the measure's standard semantics are for pure states.
    """
    if alpha < 2:
        raise ValidationError("alpha must be >= 2")
    if not isinstance(state, PureState) and state.purity() < 1.0 - 1e-9:
        warnings.warn("stabilizer Renyi entropy of a mixed state is non-standard", stacklevel=2)
    return float(np.log2(pauli_power_trace(state, alpha)) / (1 - alpha))


# ---------------------------------------------------------------------------
# Haar-ensemble reference values


@dataclass(frozen=True)
class HaarExpectation:
    """Closed-form or leading-order Haar average of a measure.

    ``band`` brackets the finite-size value when only an asymptotic form is
    available; ``units`` is "bits" except for the coherence harmonic sum.
    """

    value: float
    units: str = "bits"
    exact: bool = True
    band: tuple[float, float] | None = None


_EULER_GAMMA = 0.5772156649015329


def _harmonic_tail(d: int) -> float:
    """sum_{k=2}^{d} 1/k; Euler-Maclaurin beyond 2^20 (exact at double precision)."""
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
    """Analytic Haar-ensemble expectation of a measure at qubit count n."""
    d = 2**n
    if measure == MEASURE_COHERENCE_RE:
        value = _harmonic_tail(d)
        return HaarExpectation(value, units="harmonic (natural-log derivation)", exact=True)
    if measure == MEASURE_COHERENCE_HS:
        return HaarExpectation(1.0 - 2.0 / (d + 1), units="dimensionless", exact=True)
    if measure == MEASURE_COLLISION_ENT:
        if part is None:
            raise ValidationError("collision-entanglement requires a partition")
        part.check(n)
        da, db = 2**part.n_a, 2**part.n_b
        return HaarExpectation(float(-np.log2((da + db) / (d + 1))), exact=True)
    if measure == MEASURE_ENTANGLEMENT:
        if part is None:
            raise ValidationError("entanglement-entropy requires a partition")
        part.check(n)
        lead = float(min(part.n_a, part.n_b))
        return HaarExpectation(lead, exact=False, band=(lead - 1.0, lead))
    if measure == MEASURE_MAGIC:
        if alpha is None or alpha < 2:
            raise ValidationError("stabilizer-renyi requires alpha >= 2")
        lead = float(n - 2) if alpha == 2 else n / (alpha - 1)
        proxy = haar_magic_proxy(n, alpha)
        lo, hi = sorted((lead, proxy))
        return HaarExpectation(lead, exact=False, band=(lo, hi))
    raise NoAnalyticForm(f"no analytic Haar form for {measure!r}")


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
    elif measure.name == MEASURE_MAGIC:
        values = np.log2(pauli_power_sums(block, n, measure.alpha)) / (1 - measure.alpha)
    else:
        raise ValidationError(f"unknown measure {measure.name!r}")
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
    threads: int = 1,
) -> GapReport:
    """Monte-Carlo resource gap with paired generators.

    Chunk c of each ensemble draws from a generator seeded by (seed, c,
    ensemble seed): specs sharing a seed get common random numbers (the gap of
    an ensemble against itself is exactly zero), while distinct ensemble seeds
    give independent streams.
    """
    if e_high.n != e_low.n:
        raise ValidationError("ensembles must share the qubit count")
    measure.check(e_high.n)
    acc_high, acc_low = paired_value_means(
        as_seed(seed), samples, (measure.statistic, measure.statistic), threads=threads, sources=(e_high, e_low)
    )
    mean_h, se_h = aggregate_measure(measure, acc_high)
    mean_l, se_l = aggregate_measure(measure, acc_low)
    delta = abs(mean_h - mean_l)
    stderr = float(math.hypot(se_h, se_l))
    return GapReport(measure.label(), (mean_h, se_h), (mean_l, se_l), delta, stderr, samples)
