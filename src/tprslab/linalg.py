"""Pure states, copy moments and the symmetric subspace.

States and moments are immutable value objects, and every operation is a pure
function. Arrays are stored as float64 when real and complex128 otherwise.
Copy moments are ``SymmetricOperator`` blocks in the symmetric subspace's type
basis (``symmetric_basis``), gathered dense only on request; their trace
distance is a block eigen-problem, or, for a mean of fewer than D sample
projectors against a multiple of the identity, one on the samples' Gram matrix.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .config import EIG_FLOOR, HERM_TOL, NORM_TOL, PSD_TOL, TRACE_TOL, check_dim
from .errors import DimensionMismatch, PartitionMismatch, ValidationError

__all__ = [
    "PureState",
    "SymmetricOperator",
    "PartitionSpec",
    "trace_distance",
    "SymmetricBasis",
    "symmetric_basis",
    "symmetric_projector",
    "symmetric_dimension",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64, copy=True)
    out.setflags(write=False)
    return out


def abs2(a: np.ndarray) -> np.ndarray:
    """|a|^2 elementwise, with no hypot or sqrt: a*a for real a, re^2 + im^2 for complex a."""
    return a.real * a.real + a.imag * a.imag if np.iscomplexobj(a) else a * a


def hermitian_gram(v: np.ndarray) -> np.ndarray:
    """v^T conj(v) of a (k, D) array, exactly Hermitian: numpy computes ``a.T @ a`` as a
    symmetric rank-k update, one triangle mirrored. For complex v the real part is the
    Gram of the stacked [Re v; Im v] and the imaginary part M - M^T, M = (Im v)^T Re v,
    antisymmetric bit for bit: half the multiply-adds of the complex product."""
    v = np.asarray(v, np.result_type(v, np.float64))
    if not np.iscomplexobj(v):
        return v.T @ v
    k, size = v.shape
    w = np.concatenate((v.real, v.imag))
    out = np.empty((size, size), np.complex128)
    out.real = w.T @ w
    m = w[k:].T @ w[:k]
    np.subtract(m, m.T, out=out.imag)
    return out


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm amplitude vector of an n-qubit pure state.

    Real amplitudes are stored as float64, complex ones as complex128.
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
        # written as not (x <= tol), so a NaN or an infinity fails too
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValidationError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return 2**self.n


@dataclass(frozen=True, eq=False)
class SymmetricOperator:
    """Hermitian, unit-trace operator on the symmetric subspace of t copies of n / t
    qubits, held as its (D, D) ``block`` in the basis of ``symmetric_basis(n // t, t)``,
    float64 when real. ``n`` and ``dim`` = 2^n are the dense space's; ``mat``, the dense
    gather, is built under the dimension cap when first read, then cached read-only.
    ``factor`` is None except on a sample mean built by ``from_rows`` from N < D rows."""

    n: int
    t: int
    block: np.ndarray
    factor: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "block", _readonly(np.asarray(self.block)))
        self._check()

    def _check(self) -> None:
        if self.t < 1 or self.n < self.t or self.n % self.t:
            raise ValidationError("n must be a positive multiple of t")
        size = symmetric_dimension(self.n // self.t, self.t)
        block = self.block
        if block.shape != (size, size):
            raise ValidationError(f"block shape {block.shape}, expected ({size}, {size})")
        # a finite entry sum means finite entries, and then exact equality settles the
        # check; a NaN or an infinity reaches the tolerance pass, whose maximum is NaN
        if not (np.isfinite(block.sum()) and np.array_equal(block, block.conj().T)):
            herm = float(np.max(np.abs(block - block.conj().T)))
            if not herm <= HERM_TOL:
                raise ValidationError(f"Hermiticity violation {herm} beyond {HERM_TOL}")
        tr = complex(np.trace(block))
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValidationError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")

    @classmethod
    def from_rows(cls, n: int, t: int, rows: Iterable[np.ndarray]) -> "SymmetricOperator":
        """Mean of v v^H over the rows v of the (k, D) arrays ``rows`` yields: their
        exactly Hermitian Gram matrices (``hermitian_gram``), added array by array in
        order into one buffer and divided by the row count N. The operator owns that
        buffer; it is not copied. While N < D the operator keeps ``factor``, the (N, D)
        rows over sqrt(N), so block = factor^T conj(factor) up to rounding: the factor
        is only ever set here, from the rows that make the block."""
        total, kept, count = None, [], 0
        for v in rows:
            gram = hermitian_gram(v)
            total = gram if total is None else np.add(total, gram, out=total)
            count += len(v)
            # the rows stay while they are fewer than D, so they never outgrow the block
            if count < v.shape[1]:
                kept.append(v)
            else:
                kept.clear()
        if not count:
            raise ValidationError("a sample mean needs at least one row")
        total /= count
        total.setflags(write=False)
        factor = None
        if kept:
            factor = np.concatenate(kept)
            factor /= math.sqrt(count)
            factor.setflags(write=False)
        # built without __init__, whose copy would duplicate a buffer no one else holds
        op = cls.__new__(cls)
        vars(op).update(n=n, t=t, block=total, factor=factor)
        op._check()
        return op

    @property
    def dim(self) -> int:
        return 2**self.n

    @cached_property
    def mat(self) -> np.ndarray:
        """Entry (x, y) is block[mu, nu] / sqrt(N_mu N_nu), mu and nu the types of x and y."""
        basis = symmetric_basis(self.n // self.t, self.t)
        root = np.sqrt(basis.orbit)
        # one symmetric divisor keeps an exactly Hermitian block exactly Hermitian
        mat = (self.block / np.outer(root, root))[np.ix_(basis.index, basis.index)]
        mat.setflags(write=False)
        return mat

    @cached_property
    def scalar(self) -> float | None:
        """c when the block is exactly c times the identity (the Haar moment, c = 1/D), else None."""
        diag = np.diagonal(self.block)
        if np.all(diag == diag[0]) and np.count_nonzero(self.block) == len(diag):
            return float(diag[0].real)
        return None

    def validate_full(self) -> "SymmetricOperator":
        """Check positivity on the block, the dense spectrum's nonzero part; returns self."""
        lo = float(np.linalg.eigvalsh(self.block)[0])
        if lo < -PSD_TOL:
            raise ValidationError(f"minimum eigenvalue {lo} below -{PSD_TOL}")
        return self


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


def shannon_bits(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits along the last axis; entries at or below
    EIG_FLOOR contribute 0."""
    terms = np.log2(np.where(p > EIG_FLOOR, p, 1.0))
    terms *= p
    return -terms.sum(-1)


def trace_distance(rho: SymmetricOperator, sigma: SymmetricOperator) -> float:
    """Half the absolute eigenvalue sum of rho - sigma. Two moments on one symmetric
    subspace differ by an operator on it, whose nonzero spectrum is their block
    difference's: a D x D eigen-problem, O(D^3). A real difference goes to the real
    symmetric solver. Moments of different qubit or copy counts raise DimensionMismatch.
    When one side is c I, the other's block eigenvalues are shifted by -c instead.

    When one side keeps a ``factor`` A, N < D scaled sample rows with block A^T conj(A),
    and the other is c I, the difference has eigenvalue mu - c for each eigenvalue mu of
    the N x N Gram A A^H, and -c on the D - N dimensions left: O(N^2 D + N^3)."""
    if (rho.n, rho.t) != (sigma.n, sigma.t):
        raise DimensionMismatch(f"moments on (n, t) = {(rho.n, rho.t)} and {(sigma.n, sigma.t)} differ")
    for mean, other in ((rho, sigma), (sigma, rho)):
        c, a = other.scalar, mean.factor
        if c is not None:
            mu = np.linalg.eigvalsh(mean.block if a is None else a @ a.conj().T)
            return float(0.5 * (np.sum(np.abs(mu - c)) + (len(mean.block) - len(mu)) * abs(c)))
    w = np.linalg.eigvalsh(rho.block - sigma.block)
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


def symmetric_basis(n: int, t: int) -> SymmetricBasis:
    """Cached type basis of the symmetric subspace; D = symmetric_dimension(n, t)."""
    if n < 1 or t < 1:
        raise ValidationError("n and t must be >= 1")
    check_dim(n, t)
    return _symmetric_basis(n, t)


def symmetric_projector(n: int, t: int) -> np.ndarray:
    """Orthogonal projector onto the symmetric subspace of (C^{2^n})^{x t}.

    Returned as a raw ndarray: it is idempotent with trace binom(2^n+t-1, t),
    not a unit-trace operator. Entry (x, y) is 1/N_mu when x and y share the
    type mu, else 0.
    """
    basis = symmetric_basis(n, t)
    return (basis.index[:, None] == basis.index) / basis.orbit[basis.index][:, None]
