"""Adjacency operators, eigenvalue extraction, spectra and tree counts."""

import json
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qjordan import (
    CycInt,
    EigenStructureError,
    LatticeVector,
    Subspace,
    adjacency_apply,
    bareiss_det,
    check_theorem_gg,
    check_theorem_jg,
    eigentable,
    enumerate_rank,
    grassmann_graph,
    johnson_graph,
    johnson_rooted_tree_formula,
    laplacian_matrix,
    laplacian_spectrum,
    matrix_tree_oracle,
    q_binomial,
    q_int,
    rooted_tree_count,
    sjb_to_json,
    ud_du_count,
)
import qjordan.lattice as lattice
import qjordan.scheme as scheme
from qjordan.qcombinatorics import is_prime
from qjordan.scheme import _det_prime, _relations
from qjordan.sjb import SJB, JordanChain

from charpoly import charpoly_matches
from cycrank import divexact
from fq import contains, intersect
from modp import trial_division_is_prime


def all_ones(q, n, m):
    return LatticeVector(q, n, {s: 1 for s in enumerate_rank(n, m, q)})


def test_adjacency_identity_relation():
    v = all_ones(2, 3, 1)
    assert adjacency_apply(3, 1, 0, v) == v


def test_adjacency_valency_on_all_ones():
    # C_2(3,1) is the complete graph on 7 vertices
    v = all_ones(2, 3, 1)
    assert adjacency_apply(3, 1, 1, v) == v * 6
    # Grassmann valency q [m]_q [n-m]_q at (q,n,m) = (2,4,2)
    w = all_ones(2, 4, 2)
    assert adjacency_apply(4, 2, 1, w) == w * 18


def test_adjacency_relations_partition():
    for q, n, m in [(2, 4, 2), (3, 3, 1)]:
        verts = enumerate_rank(n, m, q)
        v = all_ones(q, n, m)
        total = LatticeVector.zero(q, n)
        for i in range(m + 1):
            total = total + adjacency_apply(n, m, i, v)
        assert total == v * len(verts)
    # symmetry: dim(X cap Y) is symmetric, so membership of Y in class_i(X)
    # matches membership of X in class_i(Y)
    for q, n, m in [(2, 4, 2), (3, 3, 1)]:
        verts = enumerate_rank(n, m, q)
        for i in range(m + 1):
            for x in verts[:6]:
                img = adjacency_apply(n, m, i, LatticeVector.basis(x))
                for y in img.support():
                    back = adjacency_apply(n, m, i, LatticeVector.basis(y))
                    assert x in back.support()


def test_relation_matrix_is_codimension_of_intersection():
    for q, n, m in [(2, 4, 2), (3, 3, 1)]:
        vertices, index_of, rel = _relations(q, n, m)
        assert vertices == enumerate_rank(n, m, q)
        assert [index_of[x] for x in vertices] == list(range(len(vertices)))
        expect = [[m - intersect(x, y).k for y in vertices] for x in vertices]
        assert rel.tolist() == expect


def test_grassmann_graph_memory_stays_small():
    # the nv^2 batch of pair matrices alone would be 155^2 * 5 * 4 * 8 B = 3.8 MB
    import tracemalloc

    enumerate_rank(5, 2, 2)
    _relations.cache_clear()
    tracemalloc.start()
    try:
        grassmann_graph(2, 5, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**6


def test_adjacency_rejects_bad_input():
    v = all_ones(2, 3, 1)
    with pytest.raises(ValueError):
        adjacency_apply(3, 1, 2, v)
    mixed = LatticeVector.basis(Subspace.zero(2, 3)) + LatticeVector.basis(
        Subspace.span(2, 3, [(1, 0, 0)])
    )
    with pytest.raises(ValueError):
        adjacency_apply(3, 1, 1, mixed)
    # a vector of another ambient space, zero or not
    foreign = LatticeVector.basis(Subspace.span(2, 3, [(1, 0, 0)]))
    for vec in (foreign, LatticeVector.zero(2, 3)):
        with pytest.raises(ValueError):
            adjacency_apply(4, 1, 1, vec)


def test_eigentable_k7(basis_for):
    rows = eigentable(3, 1, basis_for(2, 3))
    assert [(r.start_rank, r.eigenvalues) for r in rows] == [(0, (1, 6)), (1, (1, -1))]


def test_eigentable_row_count_and_laplacian(basis_for):
    rows = eigentable(4, 2, basis_for(2, 4))
    assert len(rows) == 3
    valency = 2 * q_int(2, 2) * q_int(2, 2)  # q [m][n-m] = 18
    laplacian_eigs = sorted(valency - r.eigenvalues[1] for r in rows)
    assert laplacian_eigs == [0, 15, 21]


def test_eigentable_rejects_foreign_basis(basis_for):
    with pytest.raises(ValueError):
        eigentable(4, 2, basis_for(2, 3))
    with pytest.raises(ValueError):
        eigentable(4, 3, basis_for(2, 4))


def test_eigentable_detects_broken_vector(basis_for):
    basis = basis_for(2, 4)
    target = next(i for i, c in enumerate(basis.chains) if c.start_rank <= 2 <= c.end_rank)
    vec = basis.chains[target].vector_at_rank(2)
    sub, _ = vec.sorted_items()[0]
    with pytest.raises(EigenStructureError):
        eigentable(4, 2, _with_vector(basis, 2, target, vec + LatticeVector(2, 4, {sub: 1})))


def closed_form_eigenvalue(q, n, m, i, k):
    """Eigenvalue of A_i on the rank-k constituent of the Grassmann scheme
    (Delsarte 1976; Brouwer-Cohen-Neumaier, Distance-Regular Graphs, 9.3),
    computed without any basis."""
    return sum(
        (-1) ** (i - l)
        * q ** (comb(i - l, 2) + l * k)
        * q_binomial(m - l, m - i, q)
        * q_binomial(m - k, l, q)
        * q_binomial(n - m + l - k, l, q)
        for l in range(i + 1)
    )


def test_eigentable_matches_closed_form(basis_for):
    for q, top in [(2, 5), (3, 4), (5, 3), (7, 2)]:
        for n in range(2, top + 1):
            for m in range(n // 2 + 1):
                for row in eigentable(n, m, basis_for(q, n)):
                    expect = tuple(
                        closed_form_eigenvalue(q, n, m, i, row.start_rank)
                        for i in range(m + 1)
                    )
                    assert row.eigenvalues == expect, (q, n, m, row.start_rank)


def intersection_numbers(q, n, m):
    """(b, a, c) of the Grassmann graph C_q(n, m), with b_i, a_i for
    i = 0..m and c_i for i = 0..m+1 (Brouwer-Cohen-Neumaier,
    Distance-Regular Graphs, 9.3); b_m = c_0 = 0."""
    b = [q ** (2 * i + 1) * q_int(m - i, q) * q_int(n - m - i, q) for i in range(m + 1)]
    c = [q_int(i, q) ** 2 for i in range(m + 2)]
    a = [b[0] - b[i] - c[i] for i in range(m + 1)]
    return b, a, c


def three_term_rhs(b, a, c, x, i):
    """b_(i-1) x_(i-1) + a_i x_i + c_(i+1) x_(i+1) for x_0..x_(m+1), with
    x_(-1) = 0."""
    return (b[i - 1] * x[i - 1] if i else 0) + a[i] * x[i] + c[i + 1] * x[i + 1]


@pytest.mark.parametrize("q, n, m", [(2, 4, 2), (3, 4, 2), (2, 5, 2), (3, 3, 1)])
def test_relations_satisfy_the_three_term_recurrence(q, n, m):
    # A_1 A_i = b_(i-1) A_(i-1) + a_i A_i + c_(i+1) A_(i+1): every A_i is a
    # polynomial in A_1, which lets eigentable judge later chains on A_1
    _, _, rel = _relations(q, n, m)
    adj = [(rel == i).astype(np.int64) for i in range(m + 2)]  # A_(m+1) = 0
    b, a, c = intersection_numbers(q, n, m)
    for i in range(m + 1):
        assert (adj[1] @ adj[i] == three_term_rhs(b, a, c, adj, i)).all(), i


def test_eigentable_rows_satisfy_the_three_term_recurrence(basis_for):
    for q, top in [(2, 5), (3, 4), (5, 3), (7, 2)]:
        for n in range(2, top + 1):
            for m in range(1, n // 2 + 1):
                b, a, c = intersection_numbers(q, n, m)
                for row in eigentable(n, m, basis_for(q, n)):
                    lam = row.eigenvalues + (0,)
                    for i in range(m + 1):
                        assert lam[1] * lam[i] == three_term_rhs(b, a, c, lam, i), (q, n, m)


def test_laplacian_spectrum_values():
    assert laplacian_spectrum(5, 0, 2) == ((0, 1),)
    assert laplacian_spectrum(3, 1, 2) == ((0, 1), (7, 6))
    assert laplacian_spectrum(4, 2, 2) == ((0, 1), (15, 14), (21, 20))
    for q in (2, 3):
        for n in range(2, 7):
            for m in range(n // 2 + 1):
                mults = sum(mult for _, mult in laplacian_spectrum(n, m, q))
                assert mults == q_binomial(n, m, q)


def test_rooted_tree_count_values():
    assert rooted_tree_count(4, 0, 2) == 1
    assert rooted_tree_count(3, 1, 2) == 7**6 == 117649
    assert rooted_tree_count(4, 2, 2) == 15**14 * 21**20


def python_int_bareiss(matrix) -> int:
    """Fraction-free Bareiss elimination on Python ints: the reference that
    the multimodular bareiss_det is checked against."""
    m = [[int(x) for x in row] for row in matrix]
    size = len(m)
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


def sylvester_hadamard(order):
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


def test_bareiss_det():
    assert bareiss_det([[5]]) == 5
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert bareiss_det([[1, 1], [1, 1]]) == 0
    assert bareiss_det([]) == 1
    with pytest.raises(ValueError):
        bareiss_det([[1, 2]])
    # entries must be integers: a float or a string is refused, never truncated
    for bad in ([[1.5]], [["3"]], np.array([[2.9, 0], [0, 1]])):
        with pytest.raises(TypeError):
            bareiss_det(bad)
    assert bareiss_det(np.array([[2, 1], [1, 3]], dtype=np.int32)) == 5
    # permutation-expansion oracle on random 4x4 integer matrices
    from itertools import permutations

    rng = random.Random(77)
    for _ in range(25):
        mat = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        expect = 0
        for perm in permutations(range(4)):
            sign = 1
            seen = list(perm)
            for i in range(4):
                for j in range(i + 1, 4):
                    if seen[i] > seen[j]:
                        sign = -sign
            term = sign
            for i in range(4):
                term *= mat[i][perm[i]]
            expect += term
        assert bareiss_det(mat) == expect == python_int_bareiss(mat)


def test_bareiss_det_matches_python_int_reference():
    rng = random.Random(2024)
    mats = []
    # entries past 2^31 and negative: the int64 path (< 2^63) and the
    # object path (>= 2^63)
    for size, bits in [(1, 40), (3, 31), (5, 62), (6, 70), (8, 100), (40, 35)]:
        mats.append([[rng.randint(-(2**bits), 2**bits) for _ in range(size)] for _ in range(size)])
    # singular: a dependent row, a zero row, a zero column
    for size in (2, 5, 36):
        mat = [[rng.randint(-(2**40), 2**40) for _ in range(size)] for _ in range(size)]
        mats.append(mat[:-1] + [[3 * a - 2 * b for a, b in zip(mat[0], mat[1 % size])]])
        mats.append(mat[:-1] + [[0] * size])
        mats.append([[0] + row[1:] for row in mat])
    # det = 0 modulo primes that are in use
    p0, p1, p2 = map(_det_prime, range(3))
    mats.append([[p0, 0, 0], [0, p1, 0], [0, 0, 7]])
    mats.append([[p0 * p1, 0], [0, -p2]])
    mats.append([[p0, 1], [2 * p0, 2]])
    for mat in mats:
        assert bareiss_det(mat) == python_int_bareiss(mat), mat
    assert bareiss_det(mats[-3]) == p0 * p1 * 7
    # a row-permuted L U of size 200, det = sign * prod diag(U): an
    # elimination that skipped the reduction mod p would overflow int64
    size = 200
    lower = [[rng.randint(-3, 3) if j < i else int(i == j) for j in range(size)] for i in range(size)]
    diag = [rng.choice([-3, -2, -1, 1, 2, 3, 5]) for _ in range(size)]
    upper = [[rng.randint(-3, 3) if j > i else diag[i] * (i == j) for j in range(size)] for i in range(size)]
    perm = list(range(size))
    rng.shuffle(perm)
    lu = (np.array(lower) @ np.array(upper))[perm]
    inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
    expect = (-1) ** inversions
    for d in diag:
        expect *= d
    assert bareiss_det(lu) == expect
    # |det| equals the Hadamard bound prod_i ||row_i|| exactly
    had = sylvester_hadamard(16)
    assert abs(bareiss_det(had)) == 16**8
    assert bareiss_det(had) == python_int_bareiss(had)
    assert bareiss_det(np.array(had)) == bareiss_det(had)


@pytest.mark.parametrize("bits", [26, 13, 11, 9])
def test_bareiss_det_at_the_hadamard_bound(monkeypatch, bits):
    # |det| of a Sylvester-Hadamard matrix is its Hadamard bound
    # prod_i ||row_i|| = order^(order/2) exactly: the edge of the certificate.
    # With primes below 2^13, 2^11 and 2^9, the fewest primes whose product
    # exceeds H fall short of 2H at orders 8, 16 and 32, so a lift certified
    # by M > H alone would return the wrong residue there.
    monkeypatch.setattr(scheme, "_PRIME_BITS", bits)
    scheme._det_prime.cache_clear()
    try:
        for order in (2, 4, 8, 16, 32):
            had = sylvester_hadamard(order)
            negated = [[-x for x in had[0]]] + had[1:]
            swapped = [had[1], had[0]] + had[2:]
            bound = order ** (order // 2)
            for mat, sign in ((had, 1), (negated, -1), (swapped, -1)):
                det = bareiss_det(mat)
                assert det == python_int_bareiss(mat), (order, sign)
                assert det == sign * python_int_bareiss(had) and abs(det) == bound
    finally:
        scheme._det_prime.cache_clear()


def test_bareiss_det_takes_28_primes_for_the_342_laplacian(monkeypatch):
    # H^2 is the exact product of the squared row norms: 723 bits of bound
    # for a 714-bit determinant need 28 primes below 2^26 (a bound rounded
    # up to a power of two per row needed 30)
    verts, edges = grassmann_graph(3, 4, 2)
    lap = [row[1:] for row in laplacian_matrix(verts, edges)[1:]]
    asked = set()
    prime = scheme._det_prime
    monkeypatch.setattr(scheme, "_det_prime", lambda i: asked.add(i) or prime(i))
    det = bareiss_det(lap)
    assert asked == set(range(28))
    assert det == python_int_bareiss(lap)
    assert det.bit_length() == 714


def test_det_prime_table():
    primes = [_det_prime(i) for i in range(40)]
    assert len(set(primes)) == len(primes)
    assert all(p < 2**26 for p in primes)
    # the largest primes below 2^26, in order: none skipped, by the
    # trial-division reference
    expect, cand = [], 2**26 - 1
    while len(expect) < len(primes):
        if trial_division_is_prime(cand):
            expect.append(cand)
        cand -= 2
    assert primes == expect
    # strong pseudoprimes to base 2 (2047) and to bases 2, 3, 5, 7
    assert not is_prime(2047)
    assert not is_prime(3215031751)


@pytest.mark.parametrize("bits, period", [(26, 1), (26, 2), (31, 1)])
def test_bareiss_det_with_a_short_reduction_period(monkeypatch, bits, period):
    # the default period certifies int64: fewer than 2^10 products of two
    # residues below 2^26 stack onto a reduced entry; so does each case here,
    # and at 2^31 only a full reduction after every step keeps that bound
    assert scheme._REDUCE_PERIOD * (2**scheme._PRIME_BITS - 1) ** 2 + 2**scheme._PRIME_BITS < 2**63
    assert period * (2**bits - 1) ** 2 + 2**bits < 2**63
    monkeypatch.setattr(scheme, "_PRIME_BITS", bits)
    monkeypatch.setattr(scheme, "_REDUCE_PERIOD", period)
    scheme._det_prime.cache_clear()
    try:
        _check_det_against_references(random.Random(2024))
    finally:
        scheme._det_prime.cache_clear()


def _check_det_against_references(rng):
    """bareiss_det against python_int_bareiss, or a closed form, on the
    matrices of test_bareiss_det_matches_python_int_reference and more."""
    mats = []
    # entries past 2^31, past int64, and negative
    for size, bits in [(1, 40), (3, 31), (5, 62), (6, 70), (8, 100), (40, 35)]:
        mats.append([[rng.randint(-(2**bits), 2**bits) for _ in range(size)] for _ in range(size)])
    # singular: a dependent row, a zero row, a zero column
    for size in (2, 5, 36):
        mat = [[rng.randint(-(2**40), 2**40) for _ in range(size)] for _ in range(size)]
        mats.append(mat[:-1] + [[3 * a - 2 * b for a, b in zip(mat[0], mat[1 % size])]])
        mats.append(mat[:-1] + [[0] * size])
        mats.append([[0] + row[1:] for row in mat])
    # det = 0 modulo primes that are in use
    p0, p1, p2 = map(_det_prime, range(3))
    mats.append([[p0, 0, 0], [0, p1, 0], [0, 0, 7]])
    mats.append([[p0 * p1, 0], [0, -p2]])
    mats.append([[p0, 1], [2 * p0, 2]])
    # |det| equal to the Hadamard bound, and a Laplacian minor
    mats.append(sylvester_hadamard(16))
    verts, edges = grassmann_graph(2, 4, 2)
    mats.append([row[1:] for row in laplacian_matrix(verts, edges)[1:]])
    for mat in mats:
        assert bareiss_det(mat) == python_int_bareiss(mat), mat
    # a row-permuted L U of size 200, det = sign * prod diag(U)
    size = 200
    lower = [[rng.randint(-3, 3) if j < i else int(i == j) for j in range(size)] for i in range(size)]
    diag = [rng.choice([-3, -2, -1, 1, 2, 3, 5]) for _ in range(size)]
    upper = [[rng.randint(-3, 3) if j > i else diag[i] * (i == j) for j in range(size)] for i in range(size)]
    perm = list(range(size))
    rng.shuffle(perm)
    lu = (np.array(lower) @ np.array(upper))[perm]
    inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
    expect = (-1) ** inversions
    for d in diag:
        expect *= d
    assert bareiss_det(lu) == expect


def test_importing_qjordan_builds_no_prime_table():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = (
        "import qjordan, qjordan.scheme as s; n = s._det_prime.cache_info().currsize; "
        "qjordan.bareiss_det([[3]]); print(n, s._det_prime.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["0", "1"]


def test_matrix_tree_oracle_small():
    assert matrix_tree_oracle(["a", "b"], [("a", "b")]) == 2
    verts = list(range(4))
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    assert matrix_tree_oracle(verts, edges) == 4 * 16
    assert matrix_tree_oracle(["x"], []) == 1
    with pytest.raises(ValueError):
        matrix_tree_oracle([], [])
    with pytest.raises(ValueError):
        matrix_tree_oracle(["a"], [("a", "a")])


def test_tree_formula_matches_oracle():
    cases = [(2, 3, 1), (2, 4, 1), (2, 4, 2), (3, 3, 1)]
    for q, n, m in cases:
        formula = rooted_tree_count(n, m, q)
        oracle = matrix_tree_oracle(*grassmann_graph(q, n, m))
        assert formula == oracle, (q, n, m)
    assert johnson_rooted_tree_formula(5, 2) == matrix_tree_oracle(*johnson_graph(5, 2))


def test_laplacian_charpoly_matches_spectrum():
    verts, edges = grassmann_graph(2, 4, 2)
    lap = laplacian_matrix(verts, edges)
    assert charpoly_matches(lap, laplacian_spectrum(4, 2, 2))
    # negative control: a perturbed spectrum must be rejected
    wrong = list(laplacian_spectrum(4, 2, 2))
    wrong[1] = (wrong[1][0] + 1, wrong[1][1])
    assert not charpoly_matches(lap, wrong)


def test_johnson_graph_shapes():
    verts, edges = johnson_graph(5, 2)
    assert len(verts) == 10
    assert all(bin(v).count("1") == 2 for v in verts)
    assert len(edges) == 10 * 6 // 2  # valency m(n-m) = 6
    k5_verts, k5_edges = johnson_graph(5, 1)
    assert len(k5_verts) == 5 and len(k5_edges) == 10


def count_ud_pairs(x):
    """|{(Y, Z) : X >= Y <= Z, dim Y = dim X - 1, dim Z = dim X}| by direct
    enumeration; the independent check of ud_du_count."""
    n, k, q = x.n, x.k, x.q
    total = 0
    for y in enumerate_rank(n, k - 1, q):
        if contains(x, y):
            total += sum(1 for z in enumerate_rank(n, k, q) if contains(z, y))
    return total


def count_du_pairs(x, k):
    """|{(Y, Z) : X <= Y >= Z, dim Y = k, dim Z = k - 1}| for dim X = k - 1,
    by direct enumeration."""
    n, q = x.n, x.q
    total = 0
    for y in enumerate_rank(n, k, q):
        if contains(y, x):
            total += sum(1 for z in enumerate_rank(n, k - 1, q) if contains(y, z))
    return total


def test_ud_du_counts():
    assert ud_du_count(3, 1, 2) == 7
    for x in enumerate_rank(3, 1, 2):
        assert count_ud_pairs(x) == 7
    for q, n in [(2, 3), (3, 2)]:
        for k in range(1, n + 1):
            expect = q_int(k, q) * q_int(n - k + 1, q)
            assert ud_du_count(n, k, q) == expect
            for x in enumerate_rank(n, k, q):
                assert count_ud_pairs(x) == expect
            for x in enumerate_rank(n, k - 1, q):
                assert count_du_pairs(x, k) == expect
    with pytest.raises(ValueError):
        ud_du_count(3, 0, 2)


def test_theorem_gg():
    assert check_theorem_gg(4, 1, 2)
    assert check_theorem_gg(4, 2, 2)
    assert check_theorem_gg(3, 1, 3)
    with pytest.raises(ValueError):
        check_theorem_gg(4, 3, 2)


def test_theorem_jg_and_cayley_reduction():
    assert check_theorem_jg(4, 1)
    assert check_theorem_jg(5, 2)
    # m = 1 collapses to n * |T(n,1)| = n^n with K_n tree counts
    for n in (4, 5, 6):
        rooted = matrix_tree_oracle(*johnson_graph(n, 1))
        assert n * rooted == n**n


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_adjacency_apply_is_the_sum_over_neighbours(data):
    q, n, m = data.draw(st.sampled_from([(2, 4, 2), (2, 3, 1), (3, 3, 1), (3, 4, 1), (5, 2, 1)]))
    i = data.draw(st.integers(0, m))
    vertices = enumerate_rank(n, m, q)
    subs = data.draw(st.lists(st.sampled_from(vertices), min_size=1, unique=True))
    # entries of +-1 in one slot make cancelling neighbour sums likely, and a
    # pool of 1-4 values gives coefficient classes with many members
    coeff = st.lists(st.integers(-1, 1), min_size=q - 1, max_size=q - 1)
    pool = data.draw(st.lists(coeff, min_size=1, max_size=4))
    scale = data.draw(st.sampled_from([1, 1, 3, 2**63 + 1, -(2**70)]))
    values = [CycInt(q, tuple(scale * a for a in c)) for c in pool]
    v = LatticeVector(q, n, {sub: data.draw(st.sampled_from(values)) for sub in subs})
    expect = {}
    for x in vertices:
        total = CycInt.zero(q)
        for y, c in v.items():
            if intersect(x, y).k == m - i:
                total = total + c
        expect[x] = total
    image = adjacency_apply(n, m, i, v)
    assert image == LatticeVector(q, n, expect)
    # terms come in ascending vertex order
    order = [vertices.index(x) for x in image.support()]
    assert order == sorted(order)


def test_eigentable_adds_once_per_further_coefficient_class(basis_for, monkeypatch):
    # each A_i v sums its d <= 3 coefficient classes: at most d - 1 adds per
    # vertex, for (m+1)^2 = 9 calls over 130 vertices.  A per-neighbour sum
    # takes 49,530.  At least one add keeps CycInt.add on the spectra path.
    basis = basis_for(3, 4)
    expect = eigentable(4, 2, basis)
    calls = []
    add = CycInt.__add__
    monkeypatch.setattr(CycInt, "__add__", lambda a, b: calls.append(1) or add(a, b))
    assert eigentable(4, 2, basis) == expect
    assert 1 <= len(calls) <= 9 * 130 * 2


def _with_vector(basis, m, ci, vec):
    """The basis with the rank-m vector of chain ci replaced by vec."""
    chains = list(basis.chains)
    chain = chains[ci]
    vecs = list(chain.vectors)
    vecs[m - chain.start_rank] = vec
    chains[ci] = JordanChain(chain.start_rank, tuple(vecs))
    return SJB(basis.q, basis.n, tuple(chains))


def _drop_two_terms(basis, m):
    """The basis with two terms removed from the rank-m vector of its first
    chain through rank m."""
    target = next(i for i, c in enumerate(basis.chains) if c.start_rank <= m <= c.end_rank)
    kept = dict(basis.chains[target].vector_at_rank(m).sorted_items()[2:])
    return _with_vector(basis, m, target, LatticeVector(basis.q, basis.n, kept))


def _first_eigen_fault(n, m, basis):
    """The eigentable failure detail, by a scan of each vector's coordinates
    in Subspace.sort_key order and of each chain's eigenvalues against the
    first chain of its start rank."""
    by_start = {}
    for ci, chain in enumerate(basis.chains):
        if not chain.start_rank <= m <= chain.end_rank:
            continue
        vec = chain.vector_at_rank(m)
        base_sub, base_coeff = vec.sorted_items()[0]
        row = []
        for i in range(m + 1):
            image = adjacency_apply(n, m, i, vec)
            image_base = image.coeff(base_sub)
            coords = sorted({*vec.support(), *image.support()}, key=Subspace.sort_key)
            for sub in coords:
                if image.coeff(sub) * base_coeff != image_base * vec.coeff(sub):
                    return f"chain {ci}: not an eigenvector of A_{i} at coordinate {sub!r}"
            row.append(divexact(image_base, base_coeff).to_int())
        k, row = chain.start_rank, tuple(row)
        if by_start.setdefault(k, row) != row:
            return (
                f"chain {ci} (start {k}) has eigenvalues {row}, but an earlier "
                f"chain with start {k} had {by_start[k]}"
            )
    return None


def test_eigentable_fault_detail_does_not_depend_on_the_hash_seed(basis_for, tmp_path):
    broken = _drop_two_terms(basis_for(2, 4), 2)
    expect = _first_eigen_fault(4, 2, broken)
    assert expect is not None
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(sjb_to_json(broken)))
    probe = (
        "import json, sys\n"
        "from qjordan import EigenStructureError, eigentable, sjb_from_json\n"
        "basis = sjb_from_json(json.load(open(sys.argv[1])))\n"
        "try:\n"
        "    eigentable(4, 2, basis)\n"
        "except EigenStructureError as exc:\n"
        "    print(exc)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", probe, str(path)],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == expect, f"PYTHONHASHSEED={seed}"


def _chains_through(basis, m, start):
    return [
        ci
        for ci, c in enumerate(basis.chains)
        if c.start_rank == start and c.start_rank <= m <= c.end_rank
    ]


@pytest.mark.parametrize("fault", ["broken", "foreign-row", "zero", "off-rank"])
def test_eigentable_fault_on_a_later_chain_of_its_start_rank(basis_for, fault):
    q, n, m = 3, 4, 2
    basis = basis_for(q, n)
    ones, twos = _chains_through(basis, m, 1), _chains_through(basis, m, 2)
    ci = ones[len(ones) // 2]  # neither the first nor the last of start rank 1
    vec = basis.chains[ci].vector_at_rank(m)
    last_sub, _ = vec.sorted_items()[-1]
    bad = {
        "broken": vec + LatticeVector(q, n, {last_sub: 1}),
        "foreign-row": basis.chains[twos[-1]].vector_at_rank(m),
        "zero": LatticeVector.zero(q, n),
        "off-rank": vec + LatticeVector.basis(Subspace.span(q, n, [(1, 0, 0, 0)])),
    }[fault]
    broken = _with_vector(basis, m, ci, bad)
    # a later fault on the first chain of start rank 2 must not be reported
    first_two = broken.chains[twos[0]].vector_at_rank(m)
    broken = _with_vector(broken, m, twos[0], first_two * 2 + LatticeVector.basis(last_sub))
    with pytest.raises(Exception) as info:
        eigentable(n, m, broken)
    assert type(info.value) is EigenStructureError
    assert str(info.value).startswith(f"chain {ci}")
    if fault == "zero":
        assert str(info.value) == f"chain {ci}: the rank-{m} vector is zero"
    elif fault == "off-rank":
        assert str(info.value) == f"chain {ci}: the rank-{m} vector has a term off rank {m}"
    else:
        assert str(info.value) == _first_eigen_fault(n, m, broken)


@pytest.mark.parametrize("foreign", ["field", "ambient"])
def test_eigentable_names_the_chain_of_a_vector_of_another_space(basis_for, foreign):
    q, n, m = 2, 4, 2
    basis = basis_for(q, n)
    twos = _chains_through(basis, m, 2)
    if foreign == "field":
        stranger = basis_for(3, n).chains_starting_at(2)[0]
    else:
        first = basis.chains[twos[0]]
        stranger = JordanChain(2, tuple(v.embed(n + 1) for v in first.vectors))
    # the stranger goes first among the start-2 chains, ahead of sound ones
    chains = list(basis.chains)
    chains.insert(twos[0], stranger)
    with pytest.raises(Exception) as info:
        eigentable(n, m, SJB(q, n, tuple(chains)))
    assert type(info.value) is EigenStructureError
    assert str(info.value) == f"chain {twos[0]}: the rank-{m} vector is not in B_{q}({n})"


@pytest.mark.parametrize("image", ["w * v", "3/2 * v"])
def test_eigentable_rejects_an_eigenvalue_that_is_not_a_rational_integer(
    basis_for, monkeypatch, image
):
    q, n, m = 3, 4, 2
    basis = basis_for(q, n)
    ci = _chains_through(basis, m, 0)[0]  # chains are sorted by start rank
    if image == "w * v":
        fake = lambda n, m, i, v: v * CycInt.omega(q)  # an exact eigenvector
    else:  # a doubled vector, so that 3/2 of it has integer coefficients
        basis = _with_vector(basis, m, ci, basis.chains[ci].vector_at_rank(m) * 2)
        fake = lambda n, m, i, v: LatticeVector(
            q, n, {s: CycInt(q, tuple(3 * a // 2 for a in c.coeffs)) for s, c in v.items()}
        )
    monkeypatch.setattr(scheme, "adjacency_apply", fake)
    with pytest.raises(EigenStructureError) as info:
        eigentable(n, m, basis)
    assert str(info.value) == f"chain {ci}: eigenvalue of A_0 is not a rational integer"


def test_eigentable_in_small_blocks_any_chain_order_and_past_int64(basis_for, monkeypatch):
    q, n, m = 2, 4, 2
    basis = basis_for(q, n)
    expect = eigentable(n, m, basis)
    # the rows are read through A_i on the first chain of each start rank
    calls = []
    apply = scheme.adjacency_apply
    monkeypatch.setattr(scheme, "adjacency_apply", lambda *a: calls.append(a) or apply(*a))
    assert eigentable(n, m, basis) == expect
    assert len(calls) == (m + 1) ** 2
    monkeypatch.setattr(scheme, "adjacency_apply", apply)
    # chains of all start ranks interleaved, and coefficients past int64
    chains = list(basis.chains)
    random.Random(5).shuffle(chains)
    shuffled = SJB(q, n, tuple(chains))
    scaled = SJB(q, n, tuple(
        JordanChain(c.start_rank, tuple(v * (1 << 62) for v in c.vectors)) for c in basis.chains
    ))
    cases = []
    for sound in (shuffled, scaled):
        for start in (1, 2):
            ci = _chains_through(sound, m, start)[-2]
            vec = sound.chains[ci].vector_at_rank(m)
            sub, _ = vec.sorted_items()[0]
            broken = _with_vector(sound, m, ci, vec + LatticeVector.basis(sub))
            cases.append((sound, broken, _first_eigen_fault(n, m, broken)))
    for block in (1, 1 << 7, lattice._UP_BLOCK):
        monkeypatch.setattr(lattice, "_UP_BLOCK", block)
        for sound, broken, fault in cases:
            assert eigentable(n, m, sound) == expect
            with pytest.raises(EigenStructureError) as info:
                eigentable(n, m, broken)
            assert str(info.value) == fault
