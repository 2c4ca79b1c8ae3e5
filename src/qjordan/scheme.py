"""Grassmann-scheme operators, spectra and spanning-tree identities.

The adjacency operator A_i on m-subspaces connects X and Y exactly when
dim(X  intersect Y) = m - i, so every A_i is read off one cached relation
matrix R[X, Y] = m - dim(X intersect Y) as A_i = [R == i].  The rank-m
vectors of a symmetric Jordan basis are a common eigenbasis of all the A_i;
eigenvalues are extracted from the constructed basis (with a full
coordinate consistency check) rather than hard-coded.  Spanning-tree counts
come in two independent flavors: the eigenvalue product formula and an
exact matrix-tree determinant computed by fraction-free elimination over
the integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb

import numpy as np

from . import _kernels
from .cyclotomic import CycInt
from .gflinalg import inv_table
from .lattice import LatticeVector, enumerate_rank
from .qcombinatorics import q_binomial, q_int
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


# pairs per rank_batch call: the batch stays at a few hundred kB at any size
_PAIR_BLOCK = 4096


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
    """(A_i v)(X) = sum of v(Y) over Y with dim(X intersect Y) = m - i."""
    _check_m(n, m)
    if not 0 <= i <= m:
        raise ValueError(f"relation index must lie in 0..{m}, got {i}")
    if v.is_zero:
        return v
    if not v.is_homogeneous() or v.rank() != m:
        raise ValueError(f"input must be homogeneous of rank {m}")
    vertices, index_of, rel = _relations(v.q, n, m)
    zero = CycInt.zero(v.q)
    acc: dict[int, CycInt] = {}
    for sub, coeff in v.items():
        for x in np.flatnonzero(rel[index_of[sub]] == i).tolist():
            acc[x] = acc.get(x, zero) + coeff
    return LatticeVector(v.q, n, {vertices[x]: acc[x] for x in sorted(acc)})


def eigentable(n: int, m: int, basis: SJB) -> tuple[EigenRow, ...]:
    """Extract the m+1 eigenvalue rows of the scheme from the basis.

    Every rank-m basis vector must be an exact eigenvector of every A_i
    (checked at all coordinates); the eigenvalue may depend only on the
    start rank of the chain.  Violations raise EigenStructureError.
    """
    _check_m(n, m)
    if basis.n != n:
        raise ValueError(f"basis is for n={basis.n}, asked about n={n}")
    q = basis.q
    by_start: dict[int, tuple[int, ...]] = {}
    for ci, chain in enumerate(basis.chains):
        if not chain.start_rank <= m <= chain.end_rank:
            continue
        vec = chain.vector_at_rank(m)
        row = tuple(
            _extract_eigenvalue(n, m, i, vec, ci) for i in range(m + 1)
        )
        k = chain.start_rank
        if k in by_start and by_start[k] != row:
            raise EigenStructureError(
                f"chain {ci} (start {k}) has eigenvalues {row}, but an earlier "
                f"chain with start {k} had {by_start[k]}"
            )
        by_start[k] = row
    rows = tuple(EigenRow(k, by_start[k]) for k in sorted(by_start))
    if len(rows) != m + 1:
        raise EigenStructureError(f"found {len(rows)} eigenvalue rows, expected {m + 1}")
    if len({r.eigenvalues for r in rows}) != len(rows):
        raise EigenStructureError("eigenvalue rows are not pairwise distinct")
    return rows


def _extract_eigenvalue(n: int, m: int, i: int, vec: LatticeVector, ci: int) -> int:
    image = adjacency_apply(n, m, i, vec)
    base_sub, base_coeff = vec.sorted_items()[0]
    image_base = image.coeff(base_sub)
    support = set(vec.support()) | set(image.support())
    for sub in support:
        # cross-multiplied eigen equation: exact, no division needed
        if image.coeff(sub) * base_coeff != image_base * vec.coeff(sub):
            raise EigenStructureError(
                f"chain {ci}: not an eigenvector of A_{i} at coordinate {sub!r}"
            )
    try:
        return image_base.divexact(base_coeff).to_int()
    except ValueError as exc:
        raise EigenStructureError(
            f"chain {ci}: eigenvalue of A_{i} is not a rational integer"
        ) from exc


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


def bareiss_det(matrix) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    m = [[int(x) for x in row] for row in matrix]
    size = len(m)
    if any(len(row) != size for row in m):
        raise ValueError("determinant needs a square matrix")
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k] != 0), -1)
            if swap < 0:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, size):
            row_i, row_k = m[i], m[k]
            f = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * pivot - f * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[size - 1][size - 1]


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


def charpoly_matches(matrix, spectrum) -> bool:
    """Does det(tI - matrix) equal prod (t - eig)^mult, exactly?

    Both sides are monic of degree |V|, so agreement at |V|+1 integer points
    proves equality of the characteristic polynomial with the spectrum.
    """
    mat = [[int(x) for x in row] for row in matrix]
    size = len(mat)
    for t in range(size + 1):
        shifted = [
            [(t if i == j else 0) - mat[i][j] for j in range(size)]
            for i in range(size)
        ]
        lhs = bareiss_det(shifted)
        rhs = 1
        for eig, mult in spectrum:
            rhs *= (t - eig) ** mult
        if lhs != rhs:
            return False
    return True


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
    factor = ud_du_count(n, m, q)
    trees_m = matrix_tree_oracle(*grassmann_graph(q, n, m))
    trees_m1 = matrix_tree_oracle(*grassmann_graph(q, n, m - 1))
    lhs = trees_m * factor ** q_binomial(n, m - 1, q)
    rhs = trees_m1 * factor ** q_binomial(n, m, q)
    return lhs == rhs


def check_theorem_jg(n: int, m: int) -> bool:
    """The Johnson-graph analogue, with integer factors k(n-k+1)."""
    if not 1 <= 2 * m <= n:
        raise ValueError(f"need 1 <= m <= n/2, got m={m}, n={n}")
    factor = m * (n - m + 1)
    trees_m = matrix_tree_oracle(*johnson_graph(n, m))
    trees_m1 = matrix_tree_oracle(*johnson_graph(n, m - 1))
    lhs = trees_m * factor ** comb(n, m - 1)
    rhs = trees_m1 * factor ** comb(n, m)
    return lhs == rhs
