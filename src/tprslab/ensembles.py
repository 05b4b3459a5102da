"""State ensembles, their Monte-Carlo copy moments and the Haar moment.

Subset states superpose computational basis strings from a subset S; the
phase variants attach (-1)^{f(x)} signs. The keyed kinds draw a fresh
permutation / phase key per sample; the true-random kinds sample S (and
signs) uniformly. The exact moments of the uniform measure enter the library
only through their distance to Haar (``symmetry.exact_distance``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .config import check_budget, check_domain
from .errors import BadSubsetExponent, EmptySubset, ValidationError
from .linalg import PureState, SymmetricOperator, abs2, basis_cost, hermitian_gram, symmetric_basis, symmetric_dimension
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

    def with_seed(self, seed: "RngSeed | int") -> "EnsembleSpec":
        return replace(self, seed=seed)  # coerced by __post_init__


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


def sample_block_cost(spec: EnsembleSpec, rows: int) -> tuple[int, int]:
    """Declared (peak bytes, multiply-adds) of ``sample_block(spec, rows, rng)``, a variate
    counted as 8 multiply-adds and a keyed round or phase bit as 12 per member."""
    d, m = spec.dim, spec.m or 0
    if spec.kind == KIND_HAAR:
        return 32 * d * rows, 20 * d * rows
    if spec.kind == KIND_STABILIZER:
        return 16 * d * (rows + 1080), d * rows  # 1,080 states at n = 3, the largest orbit
    if spec.kind in (KIND_SUBSET_TRUE, KIND_SUBSET_PHASE_TRUE):
        return 8 * rows * (3 * d + 4 * m), rows * (13 * d + 8 * m)
    return 8 * rows * (d + 6 * m), rows * (d + m * (12 * KeyedPermutation.default_rounds(spec.n) + 24))


# ---------------------------------------------------------------------------
# Moment operators


def haar_moment_cost(n: int, t: int) -> tuple[int, int]:
    """Declared (peak bytes, multiply-adds) of ``haar_moment``: I, I/D, its copy and a mask."""
    size = symmetric_dimension(n, t)
    return 20 * size * size + (1 << 17), size * size


def haar_moment(n: int, t: int) -> SymmetricOperator:
    """Average t-copy projector of the Haar ensemble, P_sym / binom(2^n+t-1, t): the
    SymmetricOperator with block I/D. Cached per (n, t) behind the byte budget's
    check; it is read-only, so callers share it."""
    check_budget("Haar moment", haar_moment_cost(n, t)[0])
    return _haar_moment(n, t)


@lru_cache(maxsize=16)  # one per shape the basis cache holds; each is a D x D block
def _haar_moment(n: int, t: int) -> SymmetricOperator:
    size = symmetric_dimension(n, t)
    return SymmetricOperator(n * t, t, np.eye(size) / size)


@dataclass(frozen=True)
class MomentEstimate:
    operator: SymmetricOperator
    stderr: float
    samples: int


def mc_moment_cost(spec: EnsembleSpec, samples: int) -> tuple[int, int]:
    """Declared (peak bytes, multiply-adds) of ``mc_ensemble_moment(spec, samples)``: the
    basis, a chunk's draw and (k, D) type rows with their temporaries, and D x D arrays
    (running sum, chunk Gram, squared-entry sums, kept factor and its copy); per sample,
    the type products and two rank-1 updates of D^2 / 2 (real) or 2 D^2 (complex)."""
    size, rows = symmetric_dimension(spec.n, spec.t), min(samples, _moment_rows(spec))
    wide = spec.kind in (KIND_HAAR, KIND_STABILIZER)  # complex rows
    item = 16 if wide else 8
    draw_bytes, draw_madds = sample_block_cost(spec, rows)
    peak = basis_cost(spec.n, spec.t)[0] + draw_bytes + rows * size * (2 * item + 24) + (4 * item + 16) * size * size
    per_sample = draw_madds / rows + 4 * spec.t * size + (5 if wide else 2) * size * size / 2
    return peak, int(samples * per_sample)


def _moment_rows(spec: EnsembleSpec) -> int:
    return max(1, min(DEFAULT_CHUNK, (1 << 22) // spec.dim**spec.t))  # at most 2^22 dense entries


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
    check_budget("Monte-Carlo moment", mc_moment_cost(spec, samples)[0])
    basis = symmetric_basis(spec.n, spec.t)
    block_cap = _moment_rows(spec)
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
