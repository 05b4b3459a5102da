"""Shared test helpers: independent brute-force oracles kept deliberately
separate from the library code paths they validate."""

import functools
import itertools
import math

import numpy as np

from tprslab.config import EIG_FLOOR, check_budget
from tprslab.ensembles import haar_moment, sample_block
from tprslab.growth import Const, Div, Expr
from tprslab.linalg import PureState, SymmetricOperator, symmetric_basis, trace_distance
from tprslab.resources import pauli_basis
from tprslab.sampling import DEFAULT_CHUNK, chunk_layout

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)
TKET = np.array([1, np.exp(1j * np.pi / 4)], dtype=complex) / np.sqrt(2)


def kron_all(*mats):
    out = np.array([[1.0 + 0j]]) if mats[0].ndim == 2 else np.array([1.0 + 0j])
    for m in mats:
        out = np.kron(out, m)
    return out


def pure(amps) -> PureState:
    amps = np.asarray(amps, dtype=complex)
    n = int(np.log2(len(amps)))
    return PureState(n, amps)


def density(amps) -> np.ndarray:
    """|psi><psi| of an amplitude vector, as a (2^n, 2^n) array."""
    amps = np.asarray(amps)
    return np.outer(amps, amps.conj())


def one_copy(mat) -> SymmetricOperator:
    """A density matrix as a one-copy moment: at t = 1 the type basis is the
    computational basis, so the matrix is its own block."""
    return SymmetricOperator(int(np.log2(len(mat))), 1, mat)


def random_pure(n, rng) -> PureState:
    z = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return PureState(n, z / np.linalg.norm(z))


def random_density(n, rng, rank=None) -> np.ndarray:
    """Ginibre-style random mixed state, as a (2^n, 2^n) array."""
    d = 2**n
    rank = rank or d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def loop_partial_trace(mat, n_a, n_b, keep):
    """Index-loop partial trace, independent of the reshape/einsum route."""
    da, db = 2**n_a, 2**n_b
    if keep == "A":
        out = np.zeros((da, da), dtype=complex)
        for i in range(da):
            for j in range(da):
                for b in range(db):
                    out[i, j] += mat[i * db + b, j * db + b]
    else:
        out = np.zeros((db, db), dtype=complex)
        for i in range(db):
            for j in range(db):
                for a in range(da):
                    out[i, j] += mat[a * db + i, a * db + j]
    return out


def pure_trace_distance(a, b) -> float:
    """sqrt(1 - |<a|b>|^2) for pure states."""
    ov = abs(np.vdot(np.asarray(a), np.asarray(b))) ** 2
    return float(np.sqrt(max(1.0 - ov, 0.0)))


def pauli_strings(n):
    """Independent Pauli enumeration (ordering differs from the library's),
    built one string at a time: the 4^n dense strings together outgrow memory
    from n = 6."""
    for factors in itertools.product((I2, X, Y, Z), repeat=n):
        yield functools.reduce(np.kron, factors)


def pauli_expectation_values(amps, n):
    """<psi|P|psi> for every Pauli string in enumeration order: shape (4^n,)
    for one vector, (rows, 4^n) for a (rows, 2^n) block."""
    amps = np.asarray(amps, dtype=complex)
    return np.stack([np.sum(amps.conj() * (amps @ p.T), axis=-1).real for p in pauli_strings(n)], axis=-1)


def pauli_power_sum(amps, n, alpha):
    """sum_P <psi|P|psi>^{2 alpha} by direct enumeration (one value per row of a block)."""
    return np.sum(pauli_expectation_values(amps, n) ** (2 * alpha), axis=-1)


def pauli_trace_power_sum(mat, n, alpha):
    """sum_P Tr(P rho)^{2 alpha} by direct enumeration."""
    return sum(np.trace(p @ mat).real ** (2 * alpha) for p in pauli_strings(n))


def signed_pauli_spectrum(f, n):
    """Signed expectations in ``pauli_basis`` order from f[..., a, x], where
    Tr(X^a Z^b rho) = sum_x (-1)^(b.x) f[a, x] (f[a, x] = rho[x, x ^ a]).

    The Pauli string with X-part a and Z-part b is i^popcount(a & b) X^a Z^b;
    I, X, Y, Z have X-bit 0, 1, 1, 0 and Z-bit 0, 0, 1, 1, and the first qubit
    is the most significant bit. One dense Sylvester-Hadamard product per
    state: memory grows as 4^n, so this oracle serves n <= 10.
    """
    d = 2**n
    idx = np.arange(d)
    ones = np.zeros((d, d), dtype=np.int64)
    for j in range(n):
        ones += ((idx[:, None] & idx[None, :]) >> j) & 1
    hadamard = functools.reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * n, np.ones((1, 1)))
    signed = ((f @ hadamard) * np.array([1, 1j, -1, -1j])[ones % 4]).real
    a = b = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        a = (2 * a[:, None] + np.array([0, 1, 1, 0])).ravel()
        b = (2 * b[:, None] + np.array([0, 0, 1, 1])).ravel()
    return signed.reshape(f.shape[:-2] + (d * d,))[..., a * d + b]


def pauli_expectations_pure(amps, n):
    """<psi|P|psi> for every Pauli string, in ``pauli_basis`` order: shape
    (4^n,) for one (2^n,) vector, (rows, 4^n) for a (rows, 2^n) block."""
    block = np.reshape(np.asarray(amps, dtype=complex), (-1, 2**n))
    idx = np.arange(2**n)
    f = np.conj(block[:, idx[:, None] ^ idx]) * block[:, None, :]  # conj(psi[x ^ a]) psi[x] at [row, a, x]
    ev = signed_pauli_spectrum(f, n)
    return ev[0] if np.ndim(amps) == 1 else ev


def pauli_expectations_mixed(mat, n):
    """Tr(P rho) for every Pauli string, in ``pauli_basis`` order."""
    idx = np.arange(2**n)
    return signed_pauli_spectrum(np.asarray(mat)[idx, idx[:, None] ^ idx], n)  # rho[x, x ^ a] at [a, x]


def pauli_basis_expectations(amps, n):
    """<psi|P|psi> in ``pauli_basis`` order by contraction with the dense stack."""
    return np.einsum("i,pij,j->p", np.conj(amps), pauli_basis(n), amps).real


def entropy_bits(probs):
    p = np.asarray(probs, dtype=float)
    p = p[p > 1e-12]
    return float(-(p * np.log2(p)).sum())


def masked_log_shannon_bits(p: np.ndarray) -> np.ndarray:
    """Shannon bits along the last axis through numpy's masked log2 (the
    ``where=`` path): the formula ``linalg.shannon_bits`` must reproduce bit for bit."""
    terms = np.zeros_like(p)
    np.log2(p, out=terms, where=p > EIG_FLOOR)
    terms *= p
    return -np.sum(terms, axis=-1)


def von_neumann_entropy(mat) -> float:
    """-Tr(rho log2 rho) of a density matrix, from its spectrum."""
    return entropy_bits(np.linalg.eigvalsh(mat))


def purity(mat) -> float:
    """Tr(rho^2) of a density matrix: its squared Frobenius norm."""
    return float(np.vdot(mat, mat).real)


def coherence_re(mat) -> float:
    """Relative entropy of coherence H(diag rho) - H(rho) of a density matrix, in bits."""
    return entropy_bits(np.diag(mat).real) - von_neumann_entropy(mat)


def coherence_hs(mat) -> float:
    """Hilbert-Schmidt coherence 1 - sum_x <x|rho|x>^2 of a density matrix."""
    return float(1.0 - np.sum(np.diag(mat).real ** 2))


def schmidt_probs_oracle(amps, n_a, n_b):
    """Reduced spectrum via the index-loop partial trace of |psi><psi|."""
    amps = np.asarray(amps, dtype=complex)
    red = loop_partial_trace(np.outer(amps, amps.conj()), n_a, n_b, "A")
    return np.linalg.eigvalsh(red)


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix_int(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def key_word_oracle(key: bytes) -> int:
    """Python-int fold of a byte key into the 64-bit word the library uses."""
    h = len(key)
    padded = key + b"\0" * (-len(key) % 8)
    for j in range(0, len(padded), 8):
        h = _splitmix_int(((h ^ int.from_bytes(padded[j : j + 8], "little")) + _GOLDEN) & _MASK64)
    return h


def feistel_apply_oracle(key: bytes, n: int, rounds: int, x: int) -> int:
    """Scalar Python-int Feistel network of the library's keyed permutation."""
    word = key_word_oracle(key)
    wl, wr = n - n // 2, n // 2
    left, right = x >> wr, x & ((1 << wr) - 1)
    for rnd in range(rounds):
        sub = _splitmix_int((word + (rnd + 1) * _GOLDEN) & _MASK64)
        left, right = right, left ^ (_splitmix_int(sub ^ right) & ((1 << wl) - 1))
        wl, wr = wr, wl
    return (left << wr) | right


def phase_bit_oracle(key: bytes, x: int) -> int:
    sub = _splitmix_int(key_word_oracle(key) ^ 0xD1B54A32D192ED03)
    return _splitmix_int(sub ^ x) >> 63


def _tfold_rows(block, t):
    """Row-wise t-fold tensor power of a (B, d) block -> (B, d^t)."""
    out = block
    for _ in range(t - 1):
        out = np.einsum("si,sj->sij", out, block).reshape(block.shape[0], -1)
    return out


def exact_subset_moment_oracle(n, m, t) -> np.ndarray:
    """Average of |S><S|^{x t} by enumerating all C(2^n, m) subsets."""
    d = 2**n
    acc = np.zeros((d**t, d**t), dtype=complex)
    subsets = itertools.combinations(range(d), m)
    while batch := list(itertools.islice(subsets, 256)):
        block = np.zeros((len(batch), d), dtype=complex)
        np.put_along_axis(block, np.array(batch), 1.0 / math.sqrt(m), axis=1)
        rows = _tfold_rows(block, t)
        acc += rows.T @ rows.conj()
    acc /= math.comb(d, m)
    return (acc + acc.conj().T) / 2


def exact_subset_phase_moment_oracle(n, m, t) -> np.ndarray:
    """Average over all C(2^n, m) subsets and all 2^m sign patterns."""
    d = 2**n
    patterns = np.arange(2**m)
    signs = (1.0 - 2.0 * ((patterns[:, None] >> np.arange(m)) & 1)) / math.sqrt(m)
    acc = np.zeros((d**t, d**t), dtype=complex)
    for subset in itertools.combinations(range(d), m):
        block = np.zeros((2**m, d), dtype=complex)
        block[:, list(subset)] = signs
        rows = _tfold_rows(block, t)
        acc += rows.T @ rows.conj()
    acc /= math.comb(d, m) * 2**m
    return (acc + acc.conj().T) / 2


def mc_ensemble_moment_oracle(spec, samples) -> tuple[np.ndarray, float]:
    """Monte-Carlo moment accumulated over dense (d^t, d^t) entries, with the
    same chunks and generators as ``mc_ensemble_moment``: (mean, max-entry stderr)."""
    dim = spec.dim**spec.t
    check_budget("dense Monte-Carlo moment oracle", 48 * dim * dim)  # two complex sums and their mean
    sum1 = np.zeros((dim, dim), dtype=complex)
    sum2 = np.zeros((dim, dim))
    for idx, _, size in chunk_layout(samples, max(1, min(DEFAULT_CHUNK, (1 << 22) // dim))):
        rows = _tfold_rows(sample_block(spec, size, spec.seed.generator(idx)), spec.t)
        a2 = np.abs(rows) ** 2
        sum1 += rows.T @ rows.conj()
        sum2 += a2.T @ a2
    mean = sum1 / samples
    var = np.maximum(sum2 / samples - np.abs(mean) ** 2, 0.0)
    return (mean + mean.conj().T) / 2, float(np.sqrt(var.max() / samples))


def from_rows_oracle(rows) -> np.ndarray:
    """Mean of v v^H over the rows of (k, D) arrays as the plain complex product
    v^T conj(v), summed in order, divided by the row count and averaged with its
    adjoint: what the real Gram matrices of ``SymmetricOperator.from_rows`` must give."""
    total, count = 0.0, 0
    for v in rows:
        total = total + v.T @ v.conj()
        count += len(v)
    mean = total / count
    return (mean + mean.conj().T) / 2


def type_basis_moment_oracle(spec, samples) -> tuple[np.ndarray, float]:
    """Monte-Carlo moment block and max-entry stderr in the type basis, with the
    same chunks and draws as ``mc_ensemble_moment`` but other arithmetic: a
    (k, D, t) gather and its product, ``from_rows_oracle``, and the entry variances
    through an outer product of the orbit sizes."""
    basis = symmetric_basis(spec.n, spec.t)
    root = np.sqrt(basis.orbit)
    rows, total_sq = [], 0.0
    for idx, _, size in chunk_layout(samples, max(1, min(DEFAULT_CHUNK, (1 << 22) // len(basis.index)))):
        prod = sample_block(spec, size, spec.seed.generator(idx))[:, basis.types].prod(axis=2)
        a2 = np.abs(prod) ** 2
        total_sq = total_sq + a2.T @ a2
        rows.append(prod * root)
    block = from_rows_oracle(rows)
    var = total_sq / samples - np.abs(block) ** 2 / np.outer(basis.orbit, basis.orbit)
    return block, float(np.sqrt(max(var.max(), 0.0) / samples))


# values of the (rows, D, 2t) type array exact_moment_block sorts at a time
_BLOCK_SLICE_VALUES = 1 << 18


def exact_moment_block(kind, n, m, t) -> np.ndarray:
    """Exact t-copy moment of the size-m subset ("subset") or subset-phase
    ("subset-phase") ensemble, averaged over every subset (and sign pattern),
    as the real (D, D) block in the type basis of ``linalg.symmetric_basis``.

    Entry <x|M|y> of the dense moment is C(d-k, m-k) / C(d, m) / m^t, where k
    is the number of distinct values among x_1..x_t, y_1..y_t (zero for
    k > m), here from math.comb, not from the library's coefficient product.
    The phase kind's sign average also zeroes every entry in which some value
    occurs an odd number of times. So B[mu, nu] is that entry times
    sqrt(N_mu N_nu).
    """
    basis = symmetric_basis(n, t)
    d = 2**n
    coef = np.array([math.comb(d - k, m - k) / math.comb(d, m) / m**t if k <= m else 0.0 for k in range(2 * t + 1)])
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


def exact_subset_moment(n, m, t) -> SymmetricOperator:
    """Exact average of |S><S|^{x t} over all size-m subsets, as a real SymmetricOperator."""
    return SymmetricOperator(n * t, t, exact_moment_block("subset", n, m, t))


def exact_subset_phase_moment(n, m, t) -> SymmetricOperator:
    """Exact average over all size-m subsets and 2^m sign patterns, as a real SymmetricOperator."""
    return SymmetricOperator(n * t, t, exact_moment_block("subset-phase", n, m, t))


def block_distance_oracle(kind, n, m, t) -> float:
    """Exact moment-to-Haar trace distance as one D x D eigen-problem on the
    type-basis block of ``exact_moment_block``: the oracle of ``symmetry.exact_distance``."""
    return trace_distance(SymmetricOperator(n * t, t, exact_moment_block(kind, n, m, t)), haar_moment(n, t))


def trace_distance_oracle(rho, sigma) -> float:
    """Half the absolute eigenvalue sum of the dense difference of two matrices."""
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


def _copy_indices(n, t):
    d = 2**n
    idx = np.array(list(itertools.product(range(d), repeat=t)), dtype=np.int64)
    return idx, d ** np.arange(t - 1, -1, -1, dtype=np.int64)


def symmetric_projector_oracle(n, t):
    """Average of the t! copy-permutation operators."""
    idx, weights = _copy_indices(n, t)
    dim = len(idx)
    proj = np.zeros((dim, dim))
    for perm in itertools.permutations(range(t)):
        proj[idx[:, list(perm)] @ weights, np.arange(dim)] += 1.0
    return proj / math.factorial(t)


def copy_transposition_operator(n, t, i, j):
    """Permutation operator swapping copy factors i and j of t copies of n qubits."""
    idx, weights = _copy_indices(n, t)
    swapped = idx.copy()
    swapped[:, [i, j]] = swapped[:, [j, i]]
    op = np.zeros((len(idx), len(idx)))
    op[swapped @ weights, np.arange(len(idx))] = 1.0
    return op


def coherence_projector_operator(n):
    """Projector sum_x |x,x><x,x| pairing copy 1 with copy 2 on 2n qubits."""
    d = 2**n
    diag = np.zeros(d * d)
    diag[np.arange(d) * (d + 1)] = 1.0
    return np.diag(diag)


def coherence_projector_prob(mat) -> float:
    """Basis-pairing acceptance on two copies of a density matrix: sum_x <x|rho|x>^2."""
    return float(np.sum(np.real(np.diag(mat)) ** 2))


def swap_on_a_operator(n, part):
    """Operator swapping the A factors of two n-qubit copies."""
    da, db = 2**part.n_a, 2**part.n_b
    d = da * db
    cols = np.arange(d * d)
    a1, b1 = (cols // d) // db, (cols // d) % db
    a2, b2 = (cols % d) // db, (cols % d) % db
    op = np.zeros((d * d, d * d))
    op[((a2 * db + b1) * d) + (a1 * db + b2), cols] = 1.0
    return op


def pauli_replica_operator(n, alpha):
    """Average of P^{x 2 alpha} over all 4^n Pauli strings, by enumeration."""
    return sum(functools.reduce(np.kron, [p] * (2 * alpha)) for p in pauli_strings(n)) / 2**n


def replica_test_prob_oracle(mat, alpha) -> float:
    """Pauli-replica acceptance (1 + Tr(Q rho^{x 2 alpha})) / 2 of a density matrix,
    Q = (1/2^n) sum_P P^{x 2 alpha}, summed over the (2^n)^{2 alpha} copy-space basis.

    Each dense Pauli string maps |r> to phase[r] |perm[r]>, so P^{x 2 alpha} is a
    phased permutation and Tr(P^{x 2 alpha} omega) = sum_r phase(r) omega[r, perm(r)],
    with each entry of omega = rho^{x 2 alpha} a product over the copies' digits. No
    (2^n)^{2 alpha}-square matrix is formed, so n = 2 at alpha = 3 holds 4096 rows.
    """
    mat = np.asarray(mat)
    n = int(np.log2(len(mat)))
    idx, _ = _copy_indices(n, 2 * alpha)
    total = 0.0
    for p in pauli_strings(n):
        perm = np.argmax(np.abs(p), axis=0)
        phase = p[perm, np.arange(len(p))]
        total += np.sum(np.prod(phase[idx] * mat[idx, perm[idx]], axis=1)).real
    return 0.5 * (1.0 + total / 2**n)


# Closed forms of the true-random kinds: S is uniform among the m-subsets of the
# d = d_A d_B basis values, and the phase kind gives each member an independent
# uniform sign.


def _occupancy_square(k, d, m) -> float:
    """Q(k): the mean of sum n_row^2 over k rows of d / k values each, n_row the
    members of S in the row (hypergeometric counts)."""
    return m * m / k + m * (1 - 1 / k) * (d - m) / (d - 1)


def true_random_purity(kind, n_a, n_b, m) -> float:
    """E tr rho_A^2 of the true-random ``kind``: (Q(d_A) + Q(d_B) - m) / m^2, the terms
    whose signs pair up, plus for the subset kind the rectangles with all four
    corners in S, d_A (d_A - 1) d_B (d_B - 1) (m)_4 / ((d)_4 m^2)."""
    d_a, d_b = 2**n_a, 2**n_b
    d = d_a * d_b
    purity = (_occupancy_square(d_a, d, m) + _occupancy_square(d_b, d, m) - m) / m**2
    if kind == "subset-true-random":
        purity += d_a * (d_a - 1) * d_b * (d_b - 1) * math.perm(m, 4) / (math.perm(d, 4) * m**2)
    return purity


def coherence_accept_mean(kind, n, m=None) -> float:
    """E sum_x p_x^2, the coherence test's acceptance: 1/m on every subset-kind
    state, 2/(d + 1) for Haar."""
    return 2 / (2**n + 1) if kind == "haar" else 1 / m


def swap_accept_mean(kind, n_a, n_b, m) -> float:
    """The swap test's mean acceptance, (1 + E tr rho_A^2) / 2."""
    return (1 + true_random_purity(kind, n_a, n_b, m)) / 2


def enumerated_states(kind, n, m) -> np.ndarray:
    """Every state of the true-random ``kind`` as a row, each as likely as the next:
    all m-subsets, times every sign pattern for the phase kind."""
    members = np.array(list(itertools.combinations(range(2**n), m)))
    signs = np.ones((1, m))
    if kind == "subset-phase-true-random":
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=m)))
    rows = np.zeros((len(members), len(signs), 2**n))
    rows[np.arange(len(members))[:, None, None], np.arange(len(signs))[:, None], members[:, None, :]] = signs
    return rows.reshape(-1, 2**n) / np.sqrt(m)


def operator_to_json(op) -> list:
    """Nested [re, im] pairs."""
    mat = op.mat if isinstance(op, SymmetricOperator) else np.asarray(op)
    return [[[float(e.real), float(e.imag)] for e in row] for row in mat]


def operator_from_json(data: list) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def recip(e: Expr) -> Expr:
    """The bound expression 1 / e."""
    return Div(Const(1.0), e)
