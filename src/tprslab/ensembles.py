"""State ensembles and their exact and Monte-Carlo copy-moment operators.

Subset states superpose computational basis strings from a subset S; the
phase variants attach (-1)^{f(x)} signs. The keyed kinds draw a fresh
permutation / phase key per sample; the true-random kinds sample S (and
signs) uniformly. The exact moments are those of the uniform measure, in
closed form on the symmetric subspace (``exact_moment_block``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .config import check_dim, check_domain
from .errors import BadSubsetExponent, EmptySubset, ValidationError
from .linalg import PureState, SymmetricOperator, abs2, hermitian_gram, symmetric_basis, symmetric_dimension
from .randprims import KeyedPermutation, PhaseFunction, RngSeed, draw_key_words, sample_haar_block
from .sampling import DEFAULT_CHUNK, chunk_layout

__all__ = [
    "SubsetSpec",
    "EnsembleSpec",
    "ENSEMBLE_KINDS",
    "build_subset_state",
    "build_subset_phase_state",
    "stabilizer_orbit",
    "sample_block",
    "haar_moment",
    "exact_moment_block",
    "exact_subset_moment",
    "exact_subset_phase_moment",
    "mc_ensemble_moment",
    "MomentEstimate",
]

KIND_SUBSET_PHASE_KEYED = "subset-phase-keyed"
KIND_SUBSET_PHASE_TRUE = "subset-phase-true-random"
KIND_SUBSET_KEYED = "subset-keyed"
KIND_SUBSET_TRUE = "subset-true-random"
KIND_HAAR = "haar"
KIND_STABILIZER = "stabilizer-orbit"

ENSEMBLE_KINDS = (
    KIND_SUBSET_PHASE_KEYED,
    KIND_SUBSET_PHASE_TRUE,
    KIND_SUBSET_KEYED,
    KIND_SUBSET_TRUE,
    KIND_HAAR,
    KIND_STABILIZER,
)
_SUBSET_KINDS = (KIND_SUBSET_PHASE_KEYED, KIND_SUBSET_PHASE_TRUE, KIND_SUBSET_KEYED, KIND_SUBSET_TRUE)
_PHASE_KINDS = (KIND_SUBSET_PHASE_KEYED, KIND_SUBSET_PHASE_TRUE)

# values of the (rows, D, 2t) type array exact_moment_block sorts at a time
_BLOCK_SLICE_VALUES = 1 << 18


@dataclass(frozen=True)
class SubsetSpec:
    """A sorted set of distinct n-bit strings (stored as integers)."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("qubit count must be >= 1")
        check_domain(self.n)
        if len(self.members) == 0:
            raise EmptySubset("subset needs at least one member")
        members = tuple(int(x) for x in self.members)
        if len(set(members)) != len(members):
            raise ValidationError("subset members must be distinct")
        if any(not (0 <= x < 2**self.n) for x in members):
            raise ValidationError("subset member outside {0,1}^n")
        object.__setattr__(self, "members", tuple(sorted(members)))

    @property
    def m(self) -> int:
        return len(self.members)

    @classmethod
    def from_bitstrings(cls, strings) -> "SubsetSpec":
        strings = list(strings)
        if not strings:
            raise EmptySubset("subset needs at least one member")
        widths = {len(s) for s in strings}
        if len(widths) != 1:
            raise ValidationError("all member strings must share one width")
        n = widths.pop()
        if any(set(s) - {"0", "1"} for s in strings):
            raise ValidationError("member strings must be binary")
        return cls(n, tuple(int(s, 2) for s in strings))


@dataclass(frozen=True)
class EnsembleSpec:
    """Samplable description of one state ensemble."""

    kind: str
    n: int
    m: int | None = None
    t: int = 1
    seed: RngSeed = field(default_factory=lambda: RngSeed(0))

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValidationError(f"unknown ensemble kind {self.kind!r}")
        if self.n < 1:
            raise ValidationError("qubit count must be >= 1")
        check_domain(self.n)
        if self.t < 1:
            raise ValidationError("copy count must be >= 1")
        if self.kind in _SUBSET_KINDS:
            if self.m is None or not (1 <= self.m <= 2**self.n):
                raise ValidationError("subset kinds require 1 <= m <= 2^n")
            if self.kind in _PHASE_KINDS and self.m & (self.m - 1):
                raise BadSubsetExponent("phase construction requires a power-of-two subset size")
        elif self.m is not None:
            raise ValidationError(f"kind {self.kind} takes no subset size")
        if isinstance(self.seed, int):
            object.__setattr__(self, "seed", RngSeed(self.seed))

    @property
    def dim(self) -> int:
        return 2**self.n

    @property
    def m_exp(self) -> int:
        if self.kind not in _PHASE_KINDS:
            raise ValidationError("m_exp only defined for phase kinds")
        return self.m.bit_length() - 1

    def with_seed(self, seed: int) -> "EnsembleSpec":
        return replace(self, seed=RngSeed(seed))


# ---------------------------------------------------------------------------
# State builders


def build_subset_state(spec: SubsetSpec) -> PureState:
    """|S> = sum_{x in S} |x> / sqrt(|S|)."""
    amps = np.zeros(2**spec.n)
    amps[list(spec.members)] = 1.0 / math.sqrt(spec.m)
    return PureState(spec.n, amps)


def build_subset_phase_state(spec: SubsetSpec, f: PhaseFunction) -> PureState:
    """sum_{x in S} (-1)^{f(x)} |x> / sqrt(|S|)."""
    if f.n != spec.n:
        raise ValidationError("phase function domain width must match the subset")
    amps = np.zeros(2**spec.n)
    signs = 1.0 - 2.0 * f.eval_many(spec.members).astype(float)
    amps[list(spec.members)] = signs / math.sqrt(spec.m)
    return PureState(spec.n, amps)


_CLIFFORD_KEY_DECIMALS = 8


@lru_cache(maxsize=8)
def stabilizer_orbit(n: int) -> tuple[np.ndarray, ...]:
    """All n-qubit stabilizer states: the orbit of |0..0> under H, S, CNOT.

    Breadth-first closure with global phase quotiented out; yields 6 states at
    n=1 and 60 at n=2.
    """
    if n < 1 or n > 3:
        raise ValidationError("stabilizer orbit supported for 1 <= n <= 3")
    eye = np.eye(2, dtype=np.complex128)
    had = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
    phs = np.array([[1, 0], [0, 1j]], dtype=np.complex128)

    def embed(gate: np.ndarray, pos: int) -> np.ndarray:
        out = np.array([[1.0 + 0j]])
        for q in range(n):
            out = np.kron(out, gate if q == pos else eye)
        return out

    gates = [embed(g, q) for q in range(n) for g in (had, phs)]
    d = 2**n
    for ctl in range(n):
        for tgt in range(n):
            if ctl == tgt:
                continue
            cnot = np.zeros((d, d), dtype=np.complex128)
            for x in range(d):
                bit = (x >> (n - 1 - ctl)) & 1
                y = x ^ (bit << (n - 1 - tgt))
                cnot[y, x] = 1.0
            gates.append(cnot)

    def canon_key(v: np.ndarray):
        k = int(np.argmax(np.abs(v) > 1e-8))
        w = v / (v[k] / abs(v[k]))
        return tuple(np.round(w.view(float), _CLIFFORD_KEY_DECIMALS))

    start = np.zeros(d, dtype=np.complex128)
    start[0] = 1.0
    start.setflags(write=False)
    seen = {canon_key(start): start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gates:
                w = g @ v
                key = canon_key(w)
                if key not in seen:
                    w = w / np.linalg.norm(w)
                    w.setflags(write=False)
                    seen[key] = w
                    nxt.append(w)
        frontier = nxt
    return tuple(seen.values())


# ---------------------------------------------------------------------------
# Sampling


def sample_block(spec: EnsembleSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, 2^n) block of amplitude rows drawn from the ensemble using ``rng``.

    The four subset kinds have real amplitudes and return float64 rows; Haar
    and stabilizer-orbit rows are complex128.
    Every kind makes one row-major generator call, so rows i..j of a stream
    are the same bits whether drawn in one block or several.
    True-random subsets draw 2^n uniforms per row, plus m for the phase
    kind's signs, and take the indices of the m smallest of the first 2^n as
    members; in ascending order, the k-th member gets a minus when the k-th
    sign uniform is below 0.5. Keyed kinds draw one KEY_BYTES permutation key per
    row, followed for the phase kind by that row's phase key, and evaluate
    Feistel images and phase bits on uint64 arrays.
    """
    d = spec.dim
    if spec.kind == KIND_HAAR:
        return sample_haar_block(spec.n, count, rng)
    if spec.kind == KIND_STABILIZER:
        orbit = np.stack(stabilizer_orbit(spec.n))
        return orbit[rng.integers(len(orbit), size=count)]
    signs = None
    if spec.kind in (KIND_SUBSET_TRUE, KIND_SUBSET_PHASE_TRUE):
        phase = spec.kind == KIND_SUBSET_PHASE_TRUE
        u = rng.random((count, d + spec.m if phase else d))
        # argpartition leaves the order of the m smallest open (it varies with numpy's
        # SIMD dispatch), so each row's members are sorted before signs attach to them
        members = np.sort(np.argpartition(u[:, :d], spec.m - 1, axis=1)[:, : spec.m], axis=1)
        if phase:
            signs = u[:, d:] < 0.5
    else:
        # subset-keyed permutes 0..m-1; the phase kind the zero-padded prefixes
        phase = spec.kind == KIND_SUBSET_PHASE_KEYED
        shift = spec.n - spec.m_exp if phase else 0
        prefixes = np.arange(spec.m, dtype=np.uint64) << shift
        words = draw_key_words(rng, 2 * count if phase else count).reshape(count, -1)
        members = KeyedPermutation.apply_block(words[:, :1], prefixes, spec.n, KeyedPermutation.default_rounds(spec.n))
        if phase:
            signs = PhaseFunction.keyed_bits(words[:, 1:], members)
        members = members.astype(np.intp)
    values = np.full(members.shape, 1.0 / math.sqrt(spec.m))
    if signs is not None:
        values *= 1.0 - 2.0 * signs
    amps = np.zeros((count, d))
    np.put_along_axis(amps, members, values, axis=1)
    return amps


# ---------------------------------------------------------------------------
# Moment operators


def haar_moment(n: int, t: int) -> SymmetricOperator:
    """Average t-copy projector of the Haar ensemble, P_sym / binom(2^n+t-1, t): the
    SymmetricOperator with block I/D. Cached per (n, t) behind the dimension cap's
    check; it is read-only, so callers share it."""
    check_dim(n, t)
    return _haar_moment(n, t)


@lru_cache(maxsize=16)  # one per shape the basis cache holds; each is a D x D block
def _haar_moment(n: int, t: int) -> SymmetricOperator:
    size = symmetric_dimension(n, t)
    return SymmetricOperator(n * t, t, np.eye(size) / size)


def _moment_coefficients(d: int, m: int, t: int) -> np.ndarray:
    """C(d-k, m-k) / C(d, m) / m^t = prod_{j<k} (m-j) / (d-j) / m^t, indexed by
    k = 0..min(2t, d): the moment entry of a pair of types with k distinct values."""
    j = np.arange(min(2 * t, d))
    return np.concatenate(([1.0], np.cumprod(np.maximum(m - j, 0) / (d - j)))) / float(m) ** t


def exact_moment_block(kind: str, n: int, m: int, t: int) -> np.ndarray:
    """Exact t-copy moment of the size-m subset ("subset") or subset-phase
    ("subset-phase") ensemble, averaged over every subset (and sign pattern),
    as the real (D, D) block in the type basis of ``linalg.symmetric_basis``.

    Entry <x|M|y> of the dense moment is C(d-k, m-k) / C(d, m) / m^t, where k
    is the number of distinct values among x_1..x_t, y_1..y_t (zero for
    k > m). The phase kind's sign average also zeroes every entry in which
    some value occurs an odd number of times. So B[mu, nu] is that entry times
    sqrt(N_mu N_nu).
    """
    if kind not in ("subset", "subset-phase"):
        raise ValidationError("kind must be 'subset' or 'subset-phase'")
    if not (1 <= m <= 2**n):
        raise ValidationError("need 1 <= m <= 2^n")
    basis = symmetric_basis(n, t)
    d = 2**n
    coef = _moment_coefficients(d, m, t)
    types = basis.types.astype(np.min_scalar_type(d))
    root = np.sqrt(basis.orbit)
    size = len(types)
    out = np.empty((size, size))
    step = max(1, _BLOCK_SLICE_VALUES // (size * 2 * t))
    for lo in range(0, size, step):
        rows = types[lo : lo + step]
        both = np.concatenate(np.broadcast_arrays(rows[:, None, :], types[None, :, :]), axis=2)
        both.sort(axis=2)
        entry = coef[1 + np.count_nonzero(both[..., 1:] != both[..., :-1], axis=2)]
        if kind == "subset-phase":
            entry *= np.all(both[..., 0::2] == both[..., 1::2], axis=2)
        out[lo : lo + step] = entry * (root[lo : lo + step, None] * root)
    return out


def exact_subset_moment(n: int, m: int, t: int) -> SymmetricOperator:
    """Exact average of |S><S|^{x t} over all size-m subsets, as a real SymmetricOperator."""
    return SymmetricOperator(n * t, t, exact_moment_block("subset", n, m, t))


def exact_subset_phase_moment(n: int, m: int, t: int) -> SymmetricOperator:
    """Exact average over all size-m subsets and 2^m sign patterns, as a real SymmetricOperator."""
    return SymmetricOperator(n * t, t, exact_moment_block("subset-phase", n, m, t))


@dataclass(frozen=True)
class MomentEstimate:
    operator: SymmetricOperator
    stderr: float
    samples: int


def mc_ensemble_moment(spec: EnsembleSpec, samples: int) -> MomentEstimate:
    """Monte-Carlo mean of the t-copy projector, a SymmetricOperator, with a max-entry standard error.

    Sums run over (D, D) pairs of types: in the basis of
    ``linalg.symmetric_basis``, |psi>^{x t} has coordinates
    v[mu] = sqrt(N_mu) prod_i psi[mu_i]. Chunk c draws from a generator seeded
    by (spec.seed, c); chunks run in index order and add their two D x D sums
    into running totals, so the estimate depends only on (spec, samples). The
    block is real for the subset kinds. With samples < D the operator keeps the
    scaled rows v as its ``factor`` (``SymmetricOperator.from_rows``).
    """
    basis = symmetric_basis(spec.n, spec.t)
    block_cap = max(1, min(DEFAULT_CHUNK, (1 << 22) // len(basis.index)))
    root = np.sqrt(basis.orbit)
    total_sq = None

    def rows():
        nonlocal total_sq
        for idx, _, size in chunk_layout(samples, block_cap):
            amps = sample_block(spec, size, spec.seed.generator(idx))
            prod = np.take(amps, basis.types[:, 0], axis=1)
            for column in basis.types.T[1:]:
                prod *= np.take(amps, column, axis=1)
            # every dense entry of the pair (mu, nu) has squared modulus a2[mu] a2[nu]
            sq = hermitian_gram(abs2(prod))
            total_sq = sq if total_sq is None else np.add(total_sq, sq, out=total_sq)
            del sq  # not held while the caller sums the rows
            prod *= root
            yield prod

    op = SymmetricOperator.from_rows(spec.n * spec.t, spec.t, rows())
    # entry variances (total_sq - samples |mean|^2 / (N_mu N_nu)) / samples, formed in place
    inv = 1.0 / basis.orbit
    sq = abs2(op.block)
    sq *= (samples * inv)[:, None]
    sq *= inv
    total_sq -= sq
    return MomentEstimate(op, float(np.sqrt(max(total_sq.max(), 0.0)) / samples), samples)
