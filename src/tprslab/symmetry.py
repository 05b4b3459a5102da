"""Exact moment-to-Haar trace distance of the subset and subset-phase
ensembles through their relabelling symmetry, with no D x D matrix.

Both moments commute with every relabelling of the d = 2^n basis values. So
Sym^t(C^d) splits into S_d irreps lambda = (d - i, mu), mu a partition of
i <= t, and a moment acts on the lambda-isotypic part as B_lambda on the
multiplicity space, tensored with the identity on lambda. The block size,
the multiplicity, does not grow with d, and the trace norm of B - I/D is
sum_lambda dim(lambda) * sum |eig(B_lambda - 1/D)|.

Level i works in V_i, the vectors that relabelling the unmarked values
i..d-1 leaves fixed. Its orthonormal basis holds one normalised orbit sum
per orbit O = (a, pi): the marked values 0..i-1 occur a_0..a_{i-1} times,
and the unmarked ones with the multiplicities pi, a partition of t - |a|.
V_i meets the irreps whose first row is at least d - i. Those whose first
row is exactly d - i span the joint kernel U_i of the projectors P_b onto
vectors that relabelling the unmarked values together with marked value b
leaves fixed. On U_i, relabelling the marked values acts as S_i, and
lambda = (d - i, mu) appears as the Specht module of mu. The Jucys-Murphy
elements of the marked values, X_b = sum_{c<b} (c b), have the contents of a
standard tableau of mu as joint eigenvalues, small known integers, and
their joint eigenspace is the space of B_lambda. The kernel U_i is set
apart from the rest of an integer spectrum, and the X_b have norm below t,
so no eigenvalue of order d has to be told from a neighbour one apart.

The route's cost is the level spaces V_i, not the blocks; ``route_cost`` counts
it without building a level, and callers check it against the byte budget. The
module imports no other ``tprslab`` module, and numpy only where it computes.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations, product
from types import SimpleNamespace

__all__ = ["exact_distance", "isotypic_blocks", "route_cost"]


def _moment_coefficients(d: int, m: int, t: int) -> np.ndarray:
    """C(d-k, m-k) / C(d, m) / m^t = prod_{j<k} (m-j) / (d-j) / m^t, indexed by
    k = 0..min(2t, d): the moment entry of a pair of types with k distinct values."""
    import numpy as np
    j = np.arange(min(2 * t, d))
    return np.concatenate(([1.0], np.cumprod(np.maximum(m - j, 0) / (d - j)))) / float(m) ** t


def _partitions(k: int, top: int | None = None, rows: int | None = None):
    """Partitions of k into at most ``rows`` parts <= top, as non-increasing tuples."""
    if k == 0:
        yield ()
        return
    if rows == 0:
        return
    for first in range(min(k, top or k), 0, -1):
        for rest in _partitions(k - first, first, None if rows is None else rows - 1):
            yield (first,) + rest


def _symmetry(parts) -> int:
    """Orderings of equal parts: prod over distinct values of (count)!."""
    return math.prod(math.factorial(c) for c in Counter(parts).values())


@lru_cache(maxsize=None)
def _placements(pi: tuple, rho: tuple) -> tuple:
    """Types nu of unmarked multiplicities rho, counted against a fixed type
    mu0 whose unmarked values occur pi times: (r, even, weight) per pattern,
    where r parts of nu land on values mu0 does not use, even says every
    value's total count is even, and the number of such nu is weight times
    the falling factorial (fresh values)_r."""
    counts = Counter()
    for s in range(min(len(rho), len(pi)) + 1):
        for shared in combinations(range(len(rho)), s):
            fresh = [rho[q] for q in range(len(rho)) if q not in shared]
            for onto in permutations(range(len(pi)), s):
                total = list(pi)
                for q, p in zip(shared, onto):
                    total[p] += rho[q]
                counts[len(fresh), all(v % 2 == 0 for v in total + fresh)] += 1
    same = _symmetry(rho)
    return tuple((r, even, c / same) for (r, even), c in counts.items())


def _relabel(a: tuple, pi: tuple, b: int, v: int) -> tuple:
    """Orbit after swapping marked value b with an unmarked value that occurs
    v times (v = 0: one that does not occur)."""
    rest = list(pi)
    if v:
        rest.remove(v)
    if a[b]:
        rest.append(a[b])
    return a[:b] + (v,) + a[b + 1 :], tuple(sorted(rest, reverse=True))


@lru_cache(maxsize=None)
def _level(t: int, i: int, width: int) -> SimpleNamespace:
    """Orbits of level i at t copies with at most ``width`` distinct unmarked
    values (d - i of them exist), and the sparse terms of every operator on
    V_i. For d >= i + t the width is t, and none of it depends on d or m.

    parts, symmetry: (V,) len(pi) and _symmetry(pi), so |O| = (d - i)_parts / symmetry;
    root: (V,) sqrt(N_O), N_O = t! / prod(a!) prod(pi!) dense indices per type;
    moment: (row, col, k, r, weight, even) arrays of the moment's patterns;
    average: per marked b, (src, dst, fresh) arrays of P_b's transpositions;
    jucys: per marked b >= 1, (src, dst) arrays of X_b's transpositions.
    """
    import numpy as np
    orbits = [
        (a, pi) for a in product(range(t + 1), repeat=i) if sum(a) <= t for pi in _partitions(t - sum(a), rows=width)
    ]
    index = {o: x for x, o in enumerate(orbits)}
    moment = []
    for x, (a, pi) in enumerate(orbits):
        for y, (b, rho) in enumerate(orbits):
            marked = sum(1 for u, v in zip(a, b) if u + v)
            even = all((u + v) % 2 == 0 for u, v in zip(a, b))
            for r, ev, w in _placements(pi, rho):
                moment.append((x, y, marked + len(pi) + r, r, w, even and ev))
    average, jucys = [], []
    for b in range(i):
        moves = []
        for x, (a, pi) in enumerate(orbits):
            moves.append((x, x, False))  # the identity coset
            moves += [(x, index[_relabel(a, pi, b, v)], False) for v in pi]
            if len(pi) < width or not a[b]:  # a fresh unmarked value exists
                moves.append((x, index[_relabel(a, pi, b, 0)], True))
        average.append(tuple(np.array(c) for c in zip(*moves)))
        swaps = []
        for x, (a, pi) in enumerate(orbits):
            for c in range(b):
                s = list(a)
                s[b], s[c] = s[c], s[b]
                swaps.append((x, index[tuple(s), pi]))
        if b:
            jucys.append(tuple(np.array(c) for c in zip(*swaps)))
    row, col, k, r, w, even = (np.array(c) for c in zip(*moment))
    return SimpleNamespace(
        parts=np.array([len(pi) for _, pi in orbits]),
        symmetry=np.array([_symmetry(pi) for _, pi in orbits], dtype=float),
        root=np.sqrt([math.factorial(t) / math.prod(map(math.factorial, a + pi)) for a, pi in orbits]),
        moment=(row, col, k, r, w, even),
        average=tuple(average),
        jucys=tuple(jucys),
    )


def _falling(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(x)_r = x (x - 1) ... (x - r + 1) elementwise, as floats; 0 when r > x >= 0."""
    import numpy as np
    j = np.arange(max(int(np.max(r, initial=0)), 1))
    return np.prod(np.where(j < np.asarray(r)[..., None], np.asarray(x, float)[..., None] - j, 1.0), axis=-1)


def _irrep_dim(lam: tuple) -> int:
    """dim of the S_d irrep lam = (d - i, mu) by the hook-length formula, with the
    first row's hooks as one falling factorial: exact for any d."""
    first, mu = lam[0], lam[1:]
    cols = [sum(1 for row in mu if row > c) for c in range(mu[0] if mu else 0)]
    hooks = math.prod(
        row - c + sum(1 for lower in mu[r + 1 :] if lower > c) for r, row in enumerate(mu) for c in range(row)
    )
    hooks *= math.prod(first - c + cols[c] for c in range(len(cols)))
    return math.prod(range(first - len(cols) + 1, sum(lam) + 1)) // hooks


def _joint_eigenspace(basis: np.ndarray, ops, targets) -> np.ndarray:
    """Columns spanning the vectors of span(basis) on which each commuting
    symmetric operator has its integer target eigenvalue."""
    import numpy as np
    for op, target in zip(ops, targets):
        w, v = np.linalg.eigh(basis.T @ op @ basis)
        basis = basis @ v[:, np.abs(w - target) < 0.5]
    return basis


@lru_cache(maxsize=32)
def isotypic_blocks(kind: str, n: int, t: int) -> SimpleNamespace:
    """Per irrep lambda with a nonzero block: dims[l] = dim lambda (an int),
    weights[l] the same as a float, sizes[l] its multiplicity, and blocks[l]
    the (K, R, R) stack with B_lambda = sum_k coef[k] blocks[l, k], coef from
    ``_moment_coefficients``, zero-padded to R = max(sizes); shift[l] is I/D
    on the block's own entries."""
    import numpy as np
    d = 2**n
    coefs = min(2 * t, d) + 1
    dims, sizes, stacks = [], [], []
    for i in range(min(t, d - 1) + 1):
        level = _level(t, i, min(t, d - i))
        root = np.sqrt(_falling(d - i, level.parts) / level.symmetry)  # sqrt |O|
        fresh = d - i - level.parts
        row, col, k, r, weight, even = level.moment
        val = weight * _falling(fresh[row], r) * root[row] / root[col] * level.root[row] * level.root[col]
        keep = val != 0
        if kind == "subset-phase":
            keep &= even
        dim = len(root)
        moment = np.zeros((coefs, dim, dim))
        np.add.at(moment, (k[keep], row[keep], col[keep]), val[keep])
        basis = np.eye(dim)
        if i:
            average = np.zeros((dim, dim))
            for src, dst, new in level.average:
                np.add.at(average, (dst, src), np.where(new, fresh[src], 1) * root[src] / root[dst])
            # (d - i + 1)(P_1 + ... + P_i) = i + C_all - C_unmarked - C_marked, C the
            # commuting class sums of transpositions: integer eigenvalues, 0 on U_i
            w, v = np.linalg.eigh(average + average.T)
            basis = v[:, w < 1]
        jucys = []
        for src, dst in level.jucys:
            op = np.zeros((dim, dim))
            np.add.at(op, (dst, src), 1.0)
            jucys.append(op)
        for mu in _partitions(i):
            if mu and mu[0] > d - i:
                continue
            contents = [c - y for y, length in enumerate(mu) for c in range(length)]
            q = _joint_eigenspace(basis, jucys, contents[1:])
            if q.shape[1]:
                dims.append(_irrep_dim((d - i,) + mu))
                sizes.append(q.shape[1])
                stacks.append(np.einsum("vr,kvw,ws->krs", q, moment, q))
    width = max(sizes)
    blocks = np.zeros((len(sizes), coefs, width, width))
    shift = np.zeros((len(sizes), width, width))
    total = math.comb(d + t - 1, t)
    for x, (stack, s) in enumerate(zip(stacks, sizes)):
        blocks[x, :, :s, :s] = (stack + stack.transpose(0, 2, 1)) / 2
        shift[x, range(s), range(s)] = 1.0 / total
    weights = np.array(dims, dtype=float)
    for a in (blocks, weights, shift):
        a.setflags(write=False)
    return SimpleNamespace(dims=tuple(dims), sizes=tuple(sizes), blocks=blocks, weights=weights, shift=shift)


def _level_sizes(t: int, i: int, width: int) -> tuple[int, int]:
    """|V_i| and a lower bound on the moment patterns of ``_level(t, i, width)``: C(s + i - 1, s)
    orbits per unmarked partition pi, s = t - |pi|, and a pattern per count of parts two orbits
    share, min(len(pi), len(rho)) + 1 (parity splits add 3% over a route, 15% at n = 1)."""
    by_parts = [0] * (t + 1)  # orbits by their number of unmarked parts
    for k in range(t + 1):
        count = math.comb(t - k + i - 1, t - k) if i else int(k == t)
        for pi in _partitions(k, rows=width) if count else ():
            by_parts[len(pi)] += count
    pairs = sum(a * b * (min(x, y) + 1) for x, a in enumerate(by_parts) for y, b in enumerate(by_parts))
    return sum(by_parts), pairs


def route_cost(n: int, t: int) -> tuple[int, int]:
    """Declared (peak bytes, multiply-adds) of ``isotypic_blocks(kind, n, t)``, summed over
    the cached levels: 200 bytes and t + 5 multiply-adds a moment pattern, and 3t + 5
    dense |V_i| x |V_i| arrays with (4t + 12) |V_i|^3 eigen-problem work."""
    peak = madds = 0
    for i in range(min(t, 2**n - 1) + 1):
        size, patterns = _level_sizes(t, i, min(t, 2**n - i))
        peak += 200 * patterns + 8 * (3 * t + 5) * size * size
        madds += (t + 5) * patterns + (4 * t + 12) * size**3
    return peak, madds


def exact_distance(kind: str, n: int, m: int, t: int) -> float:
    """Trace distance of the exact t-copy moment of the size-m ``kind``
    ensemble to the Haar moment I/D: half of
    sum_lambda dim(lambda) * sum |eig(B_lambda - 1/D)|. Bad input raises ValueError first."""
    import numpy as np
    if kind not in ("subset", "subset-phase") or n < 1 or t < 1 or not 1 <= m <= 2**n:
        raise ValueError(f"need kind subset or subset-phase, n, t >= 1 and 1 <= m <= 2^n; got {(kind, n, m, t)}")
    iso = isotypic_blocks(kind, n, t)
    block = np.einsum("k,lkrs->lrs", _moment_coefficients(2**n, m, t), iso.blocks) - iso.shift
    return 0.5 * float(iso.weights @ np.abs(np.linalg.eigvalsh(block)).sum(axis=1))
