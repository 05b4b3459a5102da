"""State ensembles, their exact and Monte-Carlo copy-moment operators, and
parameter advisors for the runtime-bounded constructions.

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

from .config import dim_cap
from .errors import BadSubsetExponent, EmptySubset, UnsupportedGrowthClass, ValidationError
from .growth import GrowthClass
from .linalg import DensityOperator, PureState, symmetric_basis, symmetric_dimension, symmetric_projector
from .randprims import KeyedPermutation, PhaseFunction, RngSeed, draw_key_words, sample_haar_block
from .sampling import DEFAULT_CHUNK, chunk_layout, run_ordered

__all__ = [
    "SubsetSpec",
    "EnsembleSpec",
    "ENSEMBLE_KINDS",
    "build_subset_state",
    "build_subset_phase_state",
    "build_permuted_subset_phase_state",
    "stabilizer_orbit",
    "sample_state",
    "sample_block",
    "haar_moment",
    "exact_moment_block",
    "exact_subset_moment",
    "exact_subset_phase_moment",
    "mc_ensemble_moment",
    "MomentEstimate",
    "advise_subset_size",
    "advise_copies",
    "SubsetAdvice",
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

    def to_config(self) -> dict:
        out = {"kind": self.kind, "n": self.n, "t": self.t, "seed": self.seed.seed}
        if self.m is not None:
            out["m"] = self.m
        return out

    @classmethod
    def from_config(cls, data: dict) -> "EnsembleSpec":
        return cls(
            kind=data["kind"],
            n=int(data["n"]),
            m=int(data["m"]) if "m" in data and data["m"] is not None else None,
            t=int(data.get("t", 1)),
            seed=RngSeed(int(data.get("seed", 0))),
        )

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


def _perm_images(sigma, n: int, xs: np.ndarray) -> np.ndarray:
    if isinstance(sigma, KeyedPermutation):
        if sigma.n != n:
            raise ValidationError("permutation width must match n")
        return sigma.apply_many(xs)
    table = np.asarray(sigma, dtype=np.int64)
    if table.shape != (2**n,):
        raise ValidationError("permutation table must have 2^n entries")
    return table[xs]


def build_permuted_subset_phase_state(n: int, m_exp: int, sigma, f: PhaseFunction) -> PureState:
    """Phase state on the sigma-image of the 2^{m_exp} zero-padded prefixes.

    sigma permutes whole n-bit strings; prefix x occupies the most significant
    bits, so the preimage set is {x << (n - m_exp)}.
    """
    if not (0 <= m_exp <= n):
        raise BadSubsetExponent(f"m_exp {m_exp} outside 0..{n}")
    if f.n != n:
        raise ValidationError("phase function domain width must match n")
    images = _perm_images(sigma, n, np.arange(2**m_exp) << (n - m_exp))
    amps = np.zeros(2**n)
    np.add.at(amps, images, 1.0 / math.sqrt(2**m_exp) * (1.0 - 2.0 * f.eval_many(images)))
    return PureState(n, amps)


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
    True-random subsets take the m smallest of 2^n uniforms per row, then m
    sign bits per row for the phase kind. Keyed kinds draw every row's
    KEY_BYTES permutation key, then every row's phase key, as one
    ``rng.bytes`` call each, and evaluate Feistel images and phase bits on
    uint64 arrays.
    """
    d = spec.dim
    if spec.kind == KIND_HAAR:
        return sample_haar_block(spec.n, count, rng)
    if spec.kind == KIND_STABILIZER:
        orbit = np.stack(stabilizer_orbit(spec.n))
        return orbit[rng.integers(len(orbit), size=count)]
    signs = None
    if spec.kind in (KIND_SUBSET_TRUE, KIND_SUBSET_PHASE_TRUE):
        members = np.argpartition(rng.random((count, d)), spec.m - 1, axis=1)[:, : spec.m]
        if spec.kind == KIND_SUBSET_PHASE_TRUE:
            signs = rng.integers(0, 2, size=(count, spec.m))
    else:
        # subset-keyed permutes 0..m-1; the phase kind the zero-padded prefixes
        shift = spec.n - spec.m_exp if spec.kind == KIND_SUBSET_PHASE_KEYED else 0
        prefixes = np.arange(spec.m, dtype=np.uint64) << shift
        words = draw_key_words(rng, count)[:, None]
        members = KeyedPermutation.apply_block(words, prefixes, spec.n, KeyedPermutation.default_rounds(spec.n))
        if spec.kind == KIND_SUBSET_PHASE_KEYED:
            signs = PhaseFunction.keyed_bits(draw_key_words(rng, count)[:, None], members)
        members = members.astype(np.intp)
    values = np.full(members.shape, 1.0 / math.sqrt(spec.m))
    if signs is not None:
        values *= 1.0 - 2.0 * signs
    amps = np.zeros((count, d))
    np.put_along_axis(amps, members, values, axis=1)
    return amps


def sample_state(spec: EnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    """One amplitude vector drawn from the ensemble using ``rng``."""
    return sample_block(spec, 1, rng)[0]


# ---------------------------------------------------------------------------
# Moment operators


@lru_cache(maxsize=2)
def haar_moment(n: int, t: int, cap: int | None = None) -> DensityOperator:
    """Average t-copy projector of the Haar ensemble: P_sym / binom(2^n+t-1, t).
    Cached per (n, t, cap); the matrix is read-only, so callers share it."""
    proj = symmetric_projector(n, t, cap=cap)
    return DensityOperator(n * t, proj / symmetric_dimension(n, t), validate=False)


def _dense_operator(block: np.ndarray, n: int, t: int, cap: int | None) -> DensityOperator:
    """Dense operator of a (D, D) type-basis block: entry (x, y) is
    block[mu, nu] / sqrt(N_mu N_nu), where mu and nu are the types of x and y."""
    basis = symmetric_basis(n, t, cap=cap)
    root = np.sqrt(basis.orbit)
    # one symmetric divisor keeps an exactly Hermitian block exactly Hermitian
    entries = block / np.outer(root, root)
    return DensityOperator(n * t, entries[np.ix_(basis.index, basis.index)], validate=False)


def exact_moment_block(kind: str, n: int, m: int, t: int, cap: int | None = None) -> np.ndarray:
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
    basis = symmetric_basis(n, t, cap=cap)
    d = 2**n
    # C(d-k, m-k) / C(d, m) = prod_{j<k} (m-j) / (d-j), indexed by k
    j = np.arange(min(2 * t, d))
    coef = np.concatenate(([1.0], np.cumprod(np.maximum(m - j, 0) / (d - j)))) / float(m) ** t
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


def exact_subset_moment(n: int, m: int, t: int, cap: int | None = None) -> DensityOperator:
    """Exact average of |S><S|^{x t} over all size-m subsets."""
    return _dense_operator(exact_moment_block("subset", n, m, t, cap=cap), n, t, cap)


def exact_subset_phase_moment(n: int, m: int, t: int, cap: int | None = None) -> DensityOperator:
    """Exact average over all size-m subsets and all 2^m sign patterns."""
    return _dense_operator(exact_moment_block("subset-phase", n, m, t, cap=cap), n, t, cap)


@dataclass(frozen=True)
class MomentEstimate:
    operator: DensityOperator
    stderr: float
    samples: int


def mc_ensemble_moment(
    spec: EnsembleSpec,
    samples: int,
    threads: int = 1,
    cap: int | None = None,
) -> MomentEstimate:
    """Monte-Carlo mean of the t-copy projector with a max-entry standard error.

    Sums run over (D, D) pairs of types: in the basis of
    ``linalg.symmetric_basis``, |psi>^{x t} has coordinates
    v[mu] = sqrt(N_mu) prod_i psi[mu_i]. Chunks are seeded by (spec.seed,
    chunk index) and merged in chunk order, so the estimate is reproducible
    for any thread count. The operator has the rows' dtype: real for the
    subset kinds.
    """
    basis = symmetric_basis(spec.n, spec.t, cap=cap)
    block_cap = max(1, min(DEFAULT_CHUNK, (1 << 22) // len(basis.index)))
    layout = chunk_layout(samples, block_cap)
    root = np.sqrt(basis.orbit)

    def worker(i: int):
        idx, _, size = layout[i]
        block = sample_block(spec, size, spec.seed.generator(idx))
        prod = block[:, basis.types].prod(axis=2)
        # every dense entry of the pair (mu, nu) has squared modulus a2[mu] a2[nu]
        a2 = np.abs(prod) ** 2
        v = prod * root
        return v.T @ v.conj(), a2.T @ a2

    sums = run_ordered(worker, len(layout), threads)  # summed in chunk order
    mean = sum(s1 for s1, _ in sums) / samples
    mean_sq = sum(s2 for _, s2 in sums) / samples
    var = np.maximum(mean_sq - np.abs(mean) ** 2 / np.outer(basis.orbit, basis.orbit), 0.0)
    stderr = float(np.sqrt(var.max() / samples))
    op = _dense_operator((mean + mean.conj().T) / 2, spec.n, spec.t, cap)
    return MomentEstimate(op, stderr, samples)


# ---------------------------------------------------------------------------
# Parameter advisors


@dataclass(frozen=True)
class SubsetAdvice:
    m: int
    m_exp: int


def advise_subset_size(T: GrowthClass, n: int) -> SubsetAdvice:
    """Concrete subset size inside the validity window for runtime class T.

    m is the smallest power of two at or above f(n) * ceil(log2 n), where f is
    T's base function; the slowly growing log factor realizes the required
    strict dominance of f while keeping desk-scale sizes small. The cap
    m <= 2^{n-1} keeps m well below the full domain.
    """
    if n < 2:
        raise ValidationError("advisors require n >= 2")
    if T.form == "exp":
        raise UnsupportedGrowthClass("no valid subset-size window for exponential runtime")
    target = max(T.base_class().eval(n) * math.ceil(math.log2(n)), 1.0)
    m = min(2 ** (n - 1), 1 << max(0, math.ceil(math.log2(target))))
    return SubsetAdvice(m=m, m_exp=m.bit_length() - 1)


def advise_copies(T: GrowthClass, n: int, cap: int | None = None) -> int:
    """Copy count: the two-copy minimum for plain classes, ceil(f(n)) for
    poly-of-f classes, clipped so 2^{n t} fits the dimension cap."""
    if n < 2:
        raise ValidationError("advisors require n >= 2")
    if T.form == "exp":
        raise UnsupportedGrowthClass("no valid copy count for exponential runtime")
    if T.is_family:
        raw = max(2, math.ceil(T.base_class().eval(n)))
    else:
        raw = 2
    bits = int(math.log2(dim_cap(cap)))
    return max(1, min(raw, bits // n))
