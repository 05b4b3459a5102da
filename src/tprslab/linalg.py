"""Dense complex linear algebra over qubit Hilbert spaces.

States and density operators are immutable value objects; all operations are
pure functions, so everything here is safe to call from concurrent tasks.
Operators are stored dense. The copy moments are invariant under copy
permutations, so their exact and Monte-Carlo constructions work in the
symmetric subspace's type basis (``symmetric_basis``) and gather the dense
matrix once, and ``trace_distance`` diagonalises only the distinct rows of a
difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .config import EIG_FLOOR, HERM_TOL, NORM_TOL, PSD_TOL, TRACE_TOL, check_dim
from .errors import DimensionMismatch, PartitionMismatch, ValidationError

__all__ = [
    "PureState",
    "DensityOperator",
    "PartitionSpec",
    "tensor_power",
    "partial_trace",
    "von_neumann_entropy",
    "collision_entropy",
    "trace_distance",
    "SymmetricBasis",
    "symmetric_basis",
    "symmetric_projector",
    "symmetric_dimension",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm amplitude vector of an n-qubit pure state.

    Basis ordering is big-endian: index x encodes the bit string of x with
    qubit 0 as the most significant bit, matching np.kron composition.
    Equality is identity; compare amplitudes explicitly when needed.
    """

    n: int
    amps: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("qubit count must be >= 1")
        amps = _readonly(np.asarray(self.amps).reshape(-1))
        if amps.shape[0] != 2**self.n:
            raise ValidationError(
                f"amplitude vector has length {amps.shape[0]}, expected 2^{self.n}"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValidationError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return 2**self.n

    def density(self) -> "DensityOperator":
        return DensityOperator(self.n, np.outer(self.amps, self.amps.conj()), validate=False)

    def overlap(self, other: "PureState") -> complex:
        if other.n != self.n:
            raise DimensionMismatch("states live on different qubit counts")
        return complex(np.vdot(other.amps, self.amps))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite matrix on n qubits.

    ``validate=False`` skips the eigenvalue check for operators produced by
    invariant-preserving internal operations (tensor products, partial traces,
    convex averages of validated operators); ``validate_full`` re-asserts the
    complete invariant set on demand. Equality is identity.
    """

    n: int
    mat: np.ndarray
    validate: bool = field(default=True, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("qubit count must be >= 1")
        mat = _readonly(np.asarray(self.mat))
        d = 2**self.n
        if mat.shape != (d, d):
            raise ValidationError(f"matrix shape {mat.shape}, expected ({d}, {d})")
        herm = float(np.max(np.abs(mat - mat.conj().T)))
        if herm > HERM_TOL:
            raise ValidationError(f"Hermiticity violation {herm} beyond {HERM_TOL}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
        object.__setattr__(self, "mat", mat)
        if self.validate:
            lo = float(np.linalg.eigvalsh(mat)[0])
            if lo < -PSD_TOL:
                raise ValidationError(f"minimum eigenvalue {lo} below -{PSD_TOL}")

    @property
    def dim(self) -> int:
        return 2**self.n

    def validate_full(self) -> "DensityOperator":
        """Re-run the complete invariant set; returns self for chaining."""
        DensityOperator(self.n, self.mat, validate=True)
        return self

    def purity(self) -> float:
        # Tr(rho^2) equals the squared Frobenius norm for Hermitian rho.
        return float(np.vdot(self.mat, self.mat).real)

    def diagonal(self) -> np.ndarray:
        return np.real(np.diag(self.mat)).copy()

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.mat)


@dataclass(frozen=True)
class PartitionSpec:
    """Bipartition of n = n_a + n_b qubits, with the reporting convention n_a <= n_b."""

    n_a: int
    n_b: int

    def __post_init__(self):
        if self.n_a < 1 or self.n_b < 1:
            raise ValidationError("both subsystems need at least one qubit")
        if self.n_a > self.n_b:
            raise ValidationError("convention requires n_a <= n_b")

    @property
    def n(self) -> int:
        return self.n_a + self.n_b

    def check(self, n: int) -> None:
        if self.n != n:
            raise PartitionMismatch(f"partition {self.n_a}:{self.n_b} does not cover {n} qubits")


def tensor_power(rho: DensityOperator, t: int, cap: int | None = None) -> DensityOperator:
    """t-fold tensor product of a density operator with itself."""
    if t < 1:
        raise ValidationError("t must be >= 1")
    check_dim(rho.n, t, cap)
    out = rho.mat
    for _ in range(t - 1):
        out = np.kron(out, rho.mat)
    return DensityOperator(rho.n * t, out, validate=False)


def partial_trace(rho: DensityOperator, part: PartitionSpec, keep: str) -> DensityOperator:
    """Reduce onto subsystem ``keep`` ("A" first n_a qubits, "B" the rest)."""
    part.check(rho.n)
    if keep not in ("A", "B"):
        raise ValidationError("keep must be 'A' or 'B'")
    da, db = 2**part.n_a, 2**part.n_b
    blocks = rho.mat.reshape(da, db, da, db)
    if keep == "A":
        red = np.einsum("ibjb->ij", blocks)
        nk = part.n_a
    else:
        red = np.einsum("aiaj->ij", blocks)
        nk = part.n_b
    return DensityOperator(nk, red, validate=False)


def _entropy_of_probs(p: np.ndarray) -> float:
    p = np.real(p)
    p = p[p > EIG_FLOOR]
    if p.size == 0:
        return 0.0
    return float(-np.sum(p * np.log2(p)))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """H(rho) = -Tr(rho log2 rho) in bits; eigenvalues below 1e-12 contribute 0."""
    return _entropy_of_probs(rho.eigenvalues())


def collision_entropy(rho: DensityOperator) -> float:
    """Renyi-2 entropy -log2 Tr(rho^2) in bits."""
    return float(-np.log2(rho.purity()))


def _distinct_rows(mat: np.ndarray) -> np.ndarray:
    """(G, G) matrix S^1/2 C S^1/2 with the nonzero spectrum of a square
    complex matrix mat = Q C Q^T, where Q is the (dim, G) indicator of mat's
    groups of bit-equal rows, S their sizes and C mat's entries between the
    groups' first rows, in order of first occurrence.

    Rows are grouped by an exact integer hash of their bits: the 32-bit words
    times fixed odd 64-bit weights, summed with wraparound. Rows that differ
    in one word never collide, nor do rows that differ in the signs of two
    entries (with 64-bit words the sign bits' terms would cancel). The
    grouping is kept only if mat[x, y] is bit-equal to mat[first(x),
    first(y)] for every x and y, so that rows and columns both repeat, and C
    is exactly Hermitian, so that the spectrum is the one eigvalsh finds for
    mat from one triangle. Otherwise every row is its own group and mat
    itself is returned.
    """
    words = mat.view(np.uint32)
    weights = np.arange(1, 2 * words.shape[1], 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    hashes = np.einsum("ij,j->i", words, weights)
    _, first, inverse, sizes = np.unique(hashes, return_index=True, return_inverse=True, return_counts=True)
    rep = first[inverse]
    order = np.argsort(first)
    first, sizes = first[order], sizes[order]
    reduced = mat[np.ix_(first, first)]
    exact = np.array_equal(mat[np.ix_(rep, rep)].view(np.uint32), words)
    if not (exact and np.array_equal(reduced, reduced.conj().T)):
        return mat
    root = np.sqrt(sizes)
    return reduced * root[:, None] * root


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Half the absolute eigenvalue sum of rho - sigma.

    Only the distinct rows of rho - sigma reach the eigensolver
    (``_distinct_rows``). A moment operator gathered from the symmetric
    subspace repeats each row across its type, so the eigen-problem has the
    symmetric dimension; with no repeated rows it is the dense one. An
    exactly real matrix goes to the real symmetric solver.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dimensions {rho.dim} and {sigma.dim} differ")
    reduced = _distinct_rows(rho.mat - sigma.mat)
    w = np.linalg.eigvalsh(reduced if reduced.imag.any() else reduced.real)
    return float(0.5 * np.sum(np.abs(w)))


def symmetric_dimension(n: int, t: int) -> int:
    """Dimension of the symmetric subspace of t copies of n qubits."""
    return math.comb(2**n + t - 1, t)


class SymmetricBasis(NamedTuple):
    """Orthonormal basis of the symmetric subspace of t copies of n qubits.

    One vector per type mu, a sorted t-tuple of values in 0..2^n-1:
    |mu> = sum of |x> over the orbit of mu under copy permutations, divided
    by sqrt(N_mu). Arrays are read-only.
    """

    types: np.ndarray  # (D, t) sorted values, in lexicographic order
    orbit: np.ndarray  # (D,) orbit sizes N_mu = t! / prod(multiplicity!)
    index: np.ndarray  # (2^(n t),) type of each dense basis index


@lru_cache(maxsize=16)
def _symmetric_basis(n: int, t: int) -> SymmetricBasis:
    d = 2**n
    weights = d ** np.arange(t - 1, -1, -1, dtype=np.int64)
    digits = (np.arange(d**t, dtype=np.int64)[:, None] // weights) % d
    codes, index, orbit = np.unique(np.sort(digits, axis=1) @ weights, return_inverse=True, return_counts=True)
    basis = SymmetricBasis((codes[:, None] // weights) % d, orbit, index)
    for a in basis:
        a.setflags(write=False)
    return basis


def symmetric_basis(n: int, t: int, cap: int | None = None) -> SymmetricBasis:
    """Cached type basis of the symmetric subspace; D = symmetric_dimension(n, t)."""
    if n < 1 or t < 1:
        raise ValidationError("n and t must be >= 1")
    check_dim(n, t, cap)
    return _symmetric_basis(n, t)


def symmetric_projector(n: int, t: int, cap: int | None = None) -> np.ndarray:
    """Orthogonal projector onto the symmetric subspace of (C^{2^n})^{x t}.

    Returned as a raw ndarray: it is idempotent with trace binom(2^n+t-1, t),
    not a unit-trace operator. Entry (x, y) is 1/N_mu when x and y share the
    type mu, else 0.
    """
    basis = symmetric_basis(n, t, cap=cap)
    return (basis.index[:, None] == basis.index) / basis.orbit[basis.index][:, None]
