"""Grassmann-scheme operators, spectra and spanning-tree identities.

The adjacency operator A_i on m-subspaces connects X and Y exactly when
dim(X  intersect Y) = m - i, so every A_i is read off one cached relation
matrix R[X, Y] = m - dim(X intersect Y) as A_i = [R == i], and A_i v is
summed by coefficient class.  The rank-m vectors of a symmetric Jordan
basis are a common eigenbasis of all the A_i; eigenvalues are extracted
from the constructed basis (with a full coordinate consistency check)
rather than hard-coded.  Spanning-tree counts come in two independent
flavors: the eigenvalue product formula and an exact matrix-tree
determinant.  The determinant is taken modulo word-size primes, several
at once, by one left-looking elimination over a stack of int64 copies
with one lane per prime, and lifted by the Chinese remainder theorem; the
primes' product exceeds twice the Hadamard bound, taken from the exact
product of the squared row norms, which certifies the lifted integer.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb

import numpy as np

from . import _kernels
from .cyclotomic import CycInt
from .gflinalg import Subspace, inv_table
from .lattice import LatticeVector, _image_mismatches, enumerate_rank
from .qcombinatorics import is_prime, q_binomial, q_int
from .sjb import SJB


class EigenStructureError(RuntimeError):
    """A basis vector failed to be an exact eigenvector of some A_i."""


@dataclass(frozen=True)
class EigenRow:
    """Eigenvalues (lambda_0, ..., lambda_m) shared by every basis vector in
    chains starting at the given rank."""

    start_rank: int
    eigenvalues: tuple[int, ...]


def _check_m(n: int, m: int) -> None:
    if not 0 <= 2 * m <= n:
        raise ValueError(f"need 0 <= m <= n/2, got m={m}, n={n}")


# pairs per rank_batch call: at m = 2, n = 4 the gathered batch takes 128 kB,
# and the kernel's three whole-batch temporaries at most as much again each
_PAIR_BLOCK = 1024


@cache
def _relations(q: int, n: int, m: int):
    """Vertices of the Grassmann scheme and its relation matrix.

    Returns (vertices, index_of, R) with R[x, y] = m - dim(X intersect Y),
    so A_i = [R == i].  R is symmetric: only the pairs x < y are reduced,
    _PAIR_BLOCK of them per kernel call.
    """
    vertices = enumerate_rank(n, m, q)
    index_of = {x: i for i, x in enumerate(vertices)}
    nv = len(vertices)
    rel = np.zeros((nv, nv), dtype=np.int8)
    rows = np.stack([x.matrix.T for x in vertices]).astype(np.int64)
    xs, ys = np.triu_indices(nv, k=1)
    for lo in range(0, len(xs), _PAIR_BLOCK):
        x, y = xs[lo : lo + _PAIR_BLOCK], ys[lo : lo + _PAIR_BLOCK]
        # the 2m basis rows of X and Y together have rank 2m - dim(X cap Y);
        # the gathered batch is a temporary, so no two blocks coexist
        both = np.stack((x, y), axis=1).ravel()
        ranks = _kernels.rank_batch(rows[both].reshape(-1, 2 * m, n), q, inv_table(q))
        rel[x, y] = rel[y, x] = ranks - m
    return vertices, index_of, rel


def adjacency_apply(n: int, m: int, i: int, v: LatticeVector) -> LatticeVector:
    """(A_i v)(X) = sum of v(Y) over Y with dim(X intersect Y) = m - i.

    Summed by coefficient class: (A_i v)(X) = sum_c N_c(X) c over the
    distinct values c of v, N_c(X) being the count of Y with v(Y) = c and
    R[X, Y] = i.  X takes one add per class past its first; terms come in
    ascending vertex order.
    """
    _check_m(n, m)
    if not 0 <= i <= m:
        raise ValueError(f"relation index must lie in 0..{m}, got {i}")
    if v.n != n:
        raise ValueError(f"input lives in ambient {v.n}, asked about n={n}")
    if v.is_zero:
        return v
    if v.ranks() != {m}:
        raise ValueError(f"input must be homogeneous of rank {m}")
    q = v.q
    vertices, index_of, rel = _relations(q, n, m)
    classes: dict[CycInt, list[int]] = {}
    for sub, coeff in v.items():
        classes.setdefault(coeff, []).append(index_of[sub])
    # R is symmetric: a class's rows give its column counts
    counts = np.stack([(rel[cols] == i).sum(axis=0) for cols in classes.values()], axis=1)
    terms = {}
    for x in np.flatnonzero(counts.any(axis=1)).tolist():
        parts = [
            CycInt._raw(q, tuple([k * a for a in c.coeffs]))
            for c, k in zip(classes, counts[x].tolist())
            if k
        ]
        terms[vertices[x]] = sum(parts[1:], parts[0])
    return LatticeVector._of(q, n, terms)


def eigentable(n: int, m: int, basis: SJB) -> tuple[EigenRow, ...]:
    """Extract the m+1 eigenvalue rows of the scheme from the basis.

    Each start rank's row comes from the first chain of that start rank
    through rank m: every A_i is applied to its rank-m vector, and the
    eigen equation is checked at every coordinate.  The Grassmann graph is
    distance-regular, so every A_i is a polynomial p_i(A_1) and the row has
    lambda_i = p_i(lambda_1): a later chain of that start rank shares it
    exactly when A_1 v = lambda_1 v, which one _slice_verdicts call checks
    for all of them, by a gather over the neighbour rows of A_1.  A chain
    that fails that check, or that it cannot judge, goes through the same
    per-chain extraction, so a violation raises the EigenStructureError of
    the first faulty chain in chain order, with its detail; a zero rank-m
    vector and one with a term off rank m are violations too.
    """
    _check_m(n, m)
    if basis.n != n:
        raise ValueError(f"basis is for n={basis.n}, asked about n={n}")
    through = [
        (ci, chain.start_rank, chain.vector_at_rank(m))
        for ci, chain in enumerate(basis.chains)
        if chain.start_rank <= m <= chain.end_rank
    ]
    by_start: dict[int, tuple[int, ...]] = {}
    passed: set[int] = set()  # chains whose slice verdict passed
    for pos, (ci, k, vec) in enumerate(through):
        if ci in passed:
            continue
        row = tuple(_extract_eigenvalue(n, m, i, vec, ci) for i in range(m + 1))
        if k not in by_start:
            by_start[k] = row
            later = [(c, v) for c, start, v in through[pos + 1 :] if start == k]
            passed |= _slice_verdicts(n, m, basis.q, later, row[min(m, 1)])
        elif by_start[k] != row:
            raise EigenStructureError(
                f"chain {ci} (start {k}) has eigenvalues {row}, but an earlier "
                f"chain with start {k} had {by_start[k]}"
            )
    rows = tuple(EigenRow(k, by_start[k]) for k in sorted(by_start))
    if len(rows) != m + 1:
        raise EigenStructureError(f"found {len(rows)} eigenvalue rows, expected {m + 1}")
    if len({r.eigenvalues for r in rows}) != len(rows):
        raise EigenStructureError("eigenvalue rows are not pairwise distinct")
    return rows


def _slice_verdicts(n: int, m: int, q: int, chains, lam: int) -> set[int]:
    """The chain indices of the (chain index, rank-m vector v) pairs with
    A v = lam v at every coordinate, A being A_1 (A_0 = I when m = 0).

    The Grassmann graph is regular, so the rows of A = [R == min(m, 1)]
    have one width: each vertex gathers its neighbours' coefficients, and
    ``_image_mismatches`` compares the sums with lam v, reusing the
    vectors' planes.  A zero vector, or one with a term off rank m, is not
    judged here: it is left out, like a vector that fails.
    """
    vertices, index_of, rel = _relations(q, n, m)
    judged = [
        (ci, vec)
        for ci, vec in chains
        if not vec.is_zero and all(sub in index_of for sub in vec.support())
    ]
    neighbours = np.flatnonzero(rel == min(m, 1)).reshape(len(vertices), -1)
    neighbours %= len(vertices)  # flat positions -> columns
    vectors = [vec for _, vec in judged]
    bad = _image_mismatches(vectors, index_of, vectors, index_of, [neighbours], lam)
    return {ci for (ci, _), wrong in zip(judged, bad.tolist()) if not wrong}


def _extract_eigenvalue(n: int, m: int, i: int, vec: LatticeVector, ci: int) -> int:
    if vec.ranks() != {m}:
        fault = "is zero" if vec.is_zero else f"has a term off rank {m}"
        raise EigenStructureError(f"chain {ci}: the rank-{m} vector {fault}")
    image = adjacency_apply(n, m, i, vec)
    base_sub, base_coeff = vec.sorted_items()[0]
    image_base = image.coeff(base_sub)
    # cross-multiplied eigen equation: exact, no division needed
    lhs, rhs = image * base_coeff, vec * image_base
    if lhs != rhs:
        sub = min(
            (s for s in {*lhs.support(), *rhs.support()} if lhs.coeff(s) != rhs.coeff(s)),
            key=Subspace.sort_key,
        )
        raise EigenStructureError(
            f"chain {ci}: not an eigenvector of A_{i} at coordinate {sub!r}"
        )
    # the eigenvalue image_base / base_coeff must be a rational integer: read
    # it off one nonzero slot and check it on all (Z[w] has no zero divisors)
    j = next(j for j, a in enumerate(base_coeff.coeffs) if a)
    lam, rest = divmod(image_base.coeffs[j], base_coeff.coeffs[j])
    if rest or image_base != base_coeff * lam:
        raise EigenStructureError(f"chain {ci}: eigenvalue of A_{i} is not a rational integer")
    return lam


def laplacian_spectrum(n: int, m: int, q: int) -> tuple[tuple[int, int], ...]:
    """Laplacian eigenvalues of the Grassmann graph with multiplicities:
    [k]_q [n-k+1]_q with multiplicity [n,k]_q - [n,k-1]_q for k = 0..m."""
    _check_m(n, m)
    return tuple(
        (q_int(k, q) * q_int(n - k + 1, q), q_binomial(n, k, q) - q_binomial(n, k - 1, q))
        for k in range(m + 1)
    )


def rooted_tree_count(n: int, m: int, q: int) -> int:
    """Rooted spanning trees of the Grassmann graph, by the eigenvalue
    product formula."""
    _check_m(n, m)
    out = 1
    for eig, mult in laplacian_spectrum(n, m, q)[1:]:
        out *= eig**mult
    return out


# -- exact determinants and the matrix-tree oracle ------------------------------


# Determinants are taken modulo primes below 2^_PRIME_BITS, largest first;
# a product of two residues is below 2^52.
_PRIME_BITS = 26
# Products of two residues per reduced inner sum of the elimination.  Such a
# sum plus one residue is below _REDUCE_PERIOD (p-1)^2 + p, and 2^10 (p-1)^2
# + p < 2^63 for every p < 2^26, so no int64 overflows.
_REDUCE_PERIOD = 1 << 10
# Bytes of the (lanes, N, N) int64 stack that _det_lanes eliminates, one
# lane per prime (at least one): 3 lanes for the N = 129 reduced Laplacian
# of (q, n, m) = (3, 4, 2).  More lanes share each step's numpy calls among
# more primes, but the stack sets the oracle's peak memory.
_DET_STACK_BYTES = 1 << 19


@cache
def _det_prime(i: int) -> int:
    """The i-th largest prime below 2^_PRIME_BITS, from i = 0.  Built on
    first use, one at a time, by callers that ask for i = 0, 1, 2, ..."""
    cand = (_det_prime(i - 1) if i else 2**_PRIME_BITS + 1) - 2
    while not is_prime(cand):
        cand -= 2
    return cand


def _dot(x, y, primes):
    """x @ y, lane by lane, for x of shape (L, r, k) and y of shape (L, k, c)
    with reduced entries and primes of shape (L, 1, 1).  With k at most
    _REDUCE_PERIOD an entry is the plain sum of its k products.  Past it the
    products are summed in chunks of _REDUCE_PERIOD and each chunk's sum is
    reduced, and so is the result.  Either way no entry passes
    _REDUCE_PERIOD (p-1)^2."""
    k = x.shape[-1]
    if k <= _REDUCE_PERIOD:
        return x @ y
    chunks, rest = divmod(k, _REDUCE_PERIOD)
    whole = k - rest
    out = x[..., whole:] @ y[:, whole:] % primes
    xs = x[..., :whole].reshape(*x.shape[:2], chunks, _REDUCE_PERIOD)
    ys = y[:, :whole].reshape(len(y), chunks, _REDUCE_PERIOD, y.shape[-1])
    sums = np.einsum("lrjt,ljtc->lrjc", xs, ys)  # one sum per chunk j
    # sums mod p, as sums - (sums // p) p: numpy's // by a divisor that is
    # constant along the inner loop multiplies (libdivide), where its %
    # divides, at four times the cost in numpy 2.4
    sums -= sums // primes[..., None] * primes[..., None]
    out += sums.sum(axis=2)
    out %= primes
    return out


def _det_lanes(mat, primes: list[int], a) -> list[int]:
    """det(mat) mod p for every p in primes, by one left-looking (Crout)
    elimination over Z/p of the int64 stack a, of shape (len(primes), N, N),
    with one lane per prime.

    Step k first takes column k of L from row k down, as the reduced
    a[k:, k] - a[k:, :k] @ a[:k, k] in every lane, then row k of U, as
    (a[k, k+1:] - a[k, :k] @ a[:k, k+1:]) divided by the pivot a[k, k].
    Each lane pivots on its own: on a zero pivot it swaps in the first row
    below with a nonzero entry in column k and flips its sign; a lane whose
    column has none has determinant 0.  The determinant is the signed
    product of the pivots, which stay on the diagonal.  Every entry of a is
    reduced between steps, so each inner product is bounded as _dot says,
    and a residue minus it stays inside int64 (see _REDUCE_PERIOD).
    """
    p = np.array(primes, dtype=np.int64)[:, None]
    p3 = p[:, None]
    if mat.dtype == object:
        for lane, prime in enumerate(primes):
            a[lane] = mat % prime
    else:
        np.remainder(mat[None], p3, out=a)
    sign = [1] * len(primes)
    for k in range(len(mat)):
        col = a[:, k:, k]
        if k:
            col -= _dot(a[:, k:, :k], a[:, :k, k, None], p3)[..., 0]
            col %= p
        pivots = col[:, 0].tolist()
        if not all(pivots):
            for lane in np.flatnonzero(col[:, 0] == 0):
                nonzero = col[lane].nonzero()[0]
                if not len(nonzero):
                    sign[lane] = 0
                    continue
                swap = k + nonzero[0]
                a[lane, [k, swap]] = a[lane, [swap, k]]
                sign[lane] = -sign[lane]
            if not any(sign):
                break
            pivots = col[:, 0].tolist()
        row = a[:, k, k + 1 :]
        if k:
            row -= _dot(a[:, k, None, :k], a[:, :k, k + 1 :], p3)[:, 0]
            row %= p
        # a lane of sign 0 has no inverse to take: its rows are ignored
        inv = [pow(x, -1, prime) if x else 0 for x, prime in zip(pivots, primes)]
        row *= np.array(inv)[:, None]
        row %= p
    dets = []
    for lane, prime in enumerate(primes):
        det = sign[lane]
        for x in a[lane].diagonal().tolist():
            det = det * x % prime
        dets.append(det)
    return dets


def bareiss_det(matrix) -> int:
    """Exact determinant of an integer matrix, by multimodular elimination.

    The determinant is taken modulo primes p < 2^26 by Gaussian elimination
    over Z/p (see _det_lanes), several primes at once as the lanes of one
    int64 stack of _DET_STACK_BYTES, and lifted by the Chinese remainder
    theorem to the symmetric residue, one Garner step per prime.  With
    H^2 the exact product of the squared row norms, the Hadamard bound gives
    |det| <= H < 2^ceil(bitlen(H^2) / 2); primes are taken until their
    product M exceeds twice that power of two, so the residue in
    (-M/2, M/2] is the determinant: exact and certified, with no floats.
    """
    # a float or a string raises TypeError here instead of being truncated
    rows = [[operator.index(x) for x in row] for row in matrix]
    size = len(rows)
    if any(len(row) != size for row in rows):
        raise ValueError("determinant needs a square matrix")
    if size == 0:
        return 1
    hadamard2 = 1
    for row in rows:
        norm2 = sum(x * x for x in row)
        if not norm2:
            return 0
        hadamard2 *= norm2
    log_bound = (hadamard2.bit_length() + 1) // 2
    try:
        mat = np.array(rows, dtype=np.int64)
    except OverflowError:
        mat = np.array(rows, dtype=object)
    del rows  # before the stack is taken: it lowers the peak by a list of rows
    primes, modulus = [], 1
    # until modulus > 2H = 2^(log_bound + 1); an odd modulus is never equal
    while modulus.bit_length() <= log_bound + 1:
        primes.append(_det_prime(len(primes)))
        modulus *= primes[-1]
    lanes = min(len(primes), max(1, _DET_STACK_BYTES // mat.size // 8))
    stack = np.empty((lanes, size, size), dtype=np.int64)
    residue, modulus = 0, 1
    for lo in range(0, len(primes), lanes):
        block = primes[lo : lo + lanes]
        for p, det in zip(block, _det_lanes(mat, block, stack[: len(block)])):
            # Garner's step: keep residue mod modulus, extend it mod p
            residue += modulus * ((det - residue) * pow(modulus, -1, p) % p)
            modulus *= p
    return residue - modulus if 2 * residue > modulus else residue


def matrix_tree_oracle(vertices, edges) -> int:
    """Rooted spanning trees of a simple undirected graph: |V| times the
    determinant of the reduced Laplacian, computed exactly."""
    verts = list(vertices)
    if not verts:
        raise ValueError("matrix_tree_oracle needs at least one vertex")
    index = {v: i for i, v in enumerate(verts)}
    if len(index) != len(verts):
        raise ValueError("duplicate vertices")
    simple = {}
    for a, b in edges:
        i, j = index[a], index[b]
        if i == j:
            raise ValueError(f"self-loop at {a!r}")
        simple.setdefault((min(i, j), max(i, j)), (a, b))
    lap = laplacian_matrix(verts, simple.values())
    return len(verts) * bareiss_det([row[1:] for row in lap[1:]])


def grassmann_graph(q: int, n: int, m: int):
    """Vertices and edges of the Grassmann graph C_q(n, m)."""
    _check_m(n, m)
    vertices, _, rel = _relations(q, n, m)
    pairs = np.argwhere(np.triu(rel == 1)).tolist()
    return vertices, [(vertices[x], vertices[y]) for x, y in pairs]


def laplacian_matrix(vertices, edges) -> list[list[int]]:
    index = {v: i for i, v in enumerate(vertices)}
    nv = len(vertices)
    lap = [[0] * nv for _ in range(nv)]
    for a, b in edges:
        i, j = index[a], index[b]
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    return lap


# -- Johnson analogues (q = 1 side of the tree identities) -----------------------


def johnson_graph(n: int, m: int):
    """Vertices (as bitmasks) and edges of the Johnson graph C(n, m)."""
    _check_m(n, m)
    vertices = tuple(
        sum(1 << i for i in combo) for combo in combinations(range(n), m)
    )
    edges = [
        (a, b)
        for i, a in enumerate(vertices)
        for b in vertices[i + 1 :]
        if bin(a & b).count("1") == m - 1
    ]
    return vertices, edges


def johnson_rooted_tree_formula(n: int, m: int) -> int:
    """Product formula for rooted spanning trees of the Johnson graph."""
    _check_m(n, m)
    out = 1
    for k in range(1, m + 1):
        out *= (k * (n - k + 1)) ** (comb(n, k) - comb(n, k - 1))
    return out


# -- up-down counts and the two tree cardinality identities ----------------------


def ud_du_count(n: int, k: int, q: int) -> int:
    """|UD(X)| for X of rank k, equal to |DU(X')| for X' of rank k-1:
    the q-integer product [k]_q [n-k+1]_q."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    return q_int(k, q) * q_int(n - k + 1, q)


def check_theorem_gg(n: int, m: int, q: int) -> bool:
    """Exact equality of the two Grassmann tree-count products.

    Both tree counts come from the matrix-tree determinant, independent of
    the eigenvalue product formula.
    """
    if not 1 <= 2 * m <= n:
        raise ValueError(f"need 1 <= m <= n/2, got m={m}, n={n}")
    trees_m = matrix_tree_oracle(*grassmann_graph(q, n, m))
    trees_m1 = matrix_tree_oracle(*grassmann_graph(q, n, m - 1))
    return _tree_identity(n, m, q, trees_m, trees_m1)


def check_theorem_jg(n: int, m: int) -> bool:
    """The Johnson-graph analogue, with integer factors k(n-k+1)."""
    if not 1 <= 2 * m <= n:
        raise ValueError(f"need 1 <= m <= n/2, got m={m}, n={n}")
    trees_m = matrix_tree_oracle(*johnson_graph(n, m))
    trees_m1 = matrix_tree_oracle(*johnson_graph(n, m - 1))
    return _tree_identity(n, m, 1, trees_m, trees_m1)


def _tree_identity(n: int, m: int, q: int, trees_m: int, trees_m1: int) -> bool:
    """T_m f^N_(m-1) == T_(m-1) f^N_m, for the rooted tree counts T_k of the
    graphs on k-sets and their vertex counts N_k: the Grassmann graphs over
    F_q, with N_k = [n, k]_q and f = [m]_q [n-m+1]_q, or for q = 1 the
    Johnson graphs, with N_k = C(n, k) and f = m (n-m+1)."""
    if q == 1:
        factor, size_m, size_m1 = m * (n - m + 1), comb(n, m), comb(n, m - 1)
    else:
        factor = ud_du_count(n, m, q)
        size_m, size_m1 = q_binomial(n, m, q), q_binomial(n, m - 1, q)
    return trees_m * factor**size_m1 == trees_m1 * factor**size_m
