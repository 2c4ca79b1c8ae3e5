"""Schubert normal form, subspace predicates and the hyperplane coordinate map."""

import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qjordan import Subspace, mu_apply
from qjordan.gflinalg import MAX_FIELD_ORDER, subspaces_from_matrix_batch
from qjordan.lattice import enumerate_all, enumerate_rank

from fq import contains, covers, intersect, naive_rref, points, restrict


def test_snf_is_fixed_point_on_identity_columns():
    mat = np.eye(4, dtype=int)[:, :2]
    sub = Subspace.from_matrix(2, mat)
    assert np.array_equal(sub.matrix, mat)


def test_snf_example_f2():
    sub = Subspace.span(2, 3, [(1, 1, 0), (1, 0, 1)])
    assert sub.to_json()["cols"] == [[1, 0, 1], [0, 1, 1]]


def test_line_count_f2_cubed():
    lines = {
        Subspace.span(2, 3, [v])
        for v in product(range(2), repeat=3)
        if any(v)
    }
    assert len(lines) == 7


def test_snf_conditions_hold_everywhere():
    for q in (2, 3):
        for n in range(5 if q == 2 else 4):
            for sub in enumerate_all(n, q):
                mat = sub.matrix
                pivots = sub.pivot_rows()
                assert list(pivots) == sorted(pivots)
                for j, r in enumerate(pivots):
                    col = mat[:, j]
                    assert col[r] == 1
                    assert not col[:r].any()
                if sub.k:
                    assert np.array_equal(
                        mat[list(pivots), :], np.eye(sub.k, dtype=mat.dtype)
                    )


def test_snf_idempotent_and_span_preserving():
    rng = random.Random(1234)
    for q in (2, 3):
        for n in range(1, 5 if q == 2 else 4):
            for sub in enumerate_all(n, q):
                # scramble with random generating sets of the same span
                vectors = list(points(sub))
                for _ in range(3):
                    gens = [rng.choice(vectors) for _ in range(sub.k + rng.randint(0, 2))]
                    if sub.k and not any(any(g) for g in gens):
                        continue
                    redone = Subspace.span(q, n, gens)
                    if points(redone) == points(sub):
                        assert redone is sub  # interning: canonical => identical
                again = Subspace.from_matrix(q, sub.matrix)
                assert again is sub
                assert points(again) == points(sub)


def test_canonical_uniqueness_exhaustive():
    for q in (2, 3):
        for n in range(4):
            spans = {}
            for sub in enumerate_all(n, q):
                s = points(sub)
                assert s not in spans, f"{sub!r} duplicates {spans[s]!r}"
                spans[s] = sub


def test_intersect():
    for q in (2, 3):
        x = Subspace.span(q, 3, [(1, 0, 0), (0, 1, 0)])
        assert intersect(x, x) is x
    # any two distinct planes in F_2^3 meet in a line
    planes = enumerate_rank(3, 2, 2)
    for i, x in enumerate(planes):
        for y in planes[i + 1 :]:
            meet = intersect(x, y)
            assert meet.k == 1
            assert contains(x, meet) and contains(y, meet)
    # intersection against brute-force span sets
    subs = enumerate_all(3, 2)
    for x in subs:
        for y in subs:
            expect = points(x) & points(y)
            assert points(intersect(x, y)) == expect


def test_contains_and_covers():
    zero = Subspace.zero(2, 3)
    for line in enumerate_rank(3, 1, 2):
        assert covers(line, zero)
        assert contains(line, zero)
        assert not contains(zero, line)
    full = Subspace.full(2, 3)
    for plane in enumerate_rank(3, 2, 2):
        assert covers(full, plane)
        assert not covers(full, zero)  # dimension gap 3


def test_hat():
    zero1 = Subspace.zero(2, 1)
    assert zero1.hat() == Subspace.span(2, 2, [(0, 1)])
    e1 = Subspace.span(2, 2, [(1, 0)])
    assert e1.hat().to_json()["cols"] == [[1, 0, 0], [0, 0, 1]]
    for q in (2, 3):
        for sub in enumerate_all(2, q):
            h = sub.hat()
            assert h.n == sub.n + 1 and h.k == sub.k + 1
            assert (0,) * sub.n + (1,) in points(h)


def test_embed_restrict_roundtrip():
    for sub in enumerate_all(3, 2):
        up = sub.embed(5)
        assert up.n == 5 and up.k == sub.k
        assert restrict(up, 3) is sub
    with pytest.raises(ValueError):
        Subspace.full(2, 2).embed(1)
    with pytest.raises(ValueError):
        restrict(Subspace.full(2, 2), 1)


def test_mixed_ambient_or_field_rejected():
    a = Subspace.full(2, 2)
    b = Subspace.full(2, 3)
    c = Subspace.full(3, 2)
    with pytest.raises(ValueError):
        contains(a, b)
    with pytest.raises(ValueError):
        intersect(a, c)


def test_mu_apply_examples():
    # identity embedding when the hyperplane is the coordinate one
    coord = Subspace.span(2, 3, [(1, 0, 0), (0, 1, 0)])
    for y in enumerate_all(2, 2):
        assert mu_apply(coord, y) == y.embed(3)
    # q=3 line hyperplane in F_3^2
    x = Subspace.span(3, 2, [(1, 1)])
    assert mu_apply(x, Subspace.full(3, 1)) == x
    assert mu_apply(x, Subspace.zero(3, 1)) == Subspace.zero(3, 2)
    with pytest.raises(ValueError):
        mu_apply(Subspace.zero(2, 2), Subspace.zero(2, 1))


def test_mu_apply_is_order_isomorphism():
    for q in (2, 3):
        n = 3
        for hyper in enumerate_rank(n, n - 1, q):
            images = {}
            for y in enumerate_all(n - 1, q):
                img = mu_apply(hyper, y)
                assert img.k == y.k
                assert contains(hyper, img)
                images[y] = img
            assert len(set(images.values())) == len(images)
            subs = list(images)
            for y in subs:
                for z in subs:
                    assert contains(y, z) == contains(images[y], images[z])
    # the product of two normal forms is the normal form of its span
    for q, n in [(2, 4), (3, 3), (5, 2)]:
        for hyper in enumerate_rank(n, n - 1, q):
            for y in enumerate_all(n - 1, q):
                prod = hyper.matrix.astype(np.int64) @ y.matrix.astype(np.int64) % q
                rows, rank = naive_rref(prod.T, q)
                snf = np.array(rows[:rank], dtype=np.int64).reshape(rank, n).T
                assert np.array_equal(prod, snf), (hyper, y)
                assert np.array_equal(mu_apply(hyper, y).matrix, prod)


def test_json_roundtrip_recanonicalizes():
    sub = Subspace.span(3, 3, [(1, 2, 0), (0, 1, 1)])
    obj = sub.to_json()
    assert Subspace.from_json(3, obj) is sub
    # feed a non-canonical generating set through the JSON path
    messy = {
        "n": 3,
        "k": 2,
        "cols": [[2, 1, 0], [2, 2, 1]],  # scaled/mixed columns of the same span
    }
    loaded = Subspace.from_json(3, messy)
    assert points(loaded) == points(sub)


def test_to_json_gives_fresh_exact_int_columns():
    for q, n in ((2, 4), (3, 3), (5, 2)):
        for sub in enumerate_all(n, q):
            payload = sub.to_json()
            assert payload["n"] == n and payload["k"] == sub.k
            assert payload["cols"] == sub.matrix.T.tolist()
            assert all(type(x) is int for col in payload["cols"] for x in col)
    sub = Subspace.span(3, 3, [(1, 2, 0), (0, 1, 1)])
    first = sub.to_json()
    first["cols"][0][1] = 7
    first["cols"].append([0, 0, 1])
    second = sub.to_json()
    assert second == {"n": 3, "k": 2, "cols": [[1, 0, 1], [0, 1, 1]]}
    assert second["cols"][0] is not first["cols"][0]
    assert sub.matrix.tolist() == [[1, 0], [0, 1], [1, 1]]
    assert Subspace.from_json(3, second) is sub


def test_from_json_rejects_dependent_columns():
    for obj in (
        {"n": 3, "k": 1, "cols": [[0, 0, 0]]},
        {"n": 3, "k": 2, "cols": [[1, 2, 0], [2, 1, 0]]},  # second = 2 * first
        {"n": 2, "k": 2, "cols": [[1, 1], [3, 3]]},  # equal mod 2
    ):
        q = 2 if obj["n"] == 2 else 3
        with pytest.raises(ValueError, match="dimension"):
            Subspace.from_json(q, obj)
    assert Subspace.from_json(3, {"n": 3, "k": 0, "cols": []}) is Subspace.zero(3, 3)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_from_json_reduces_columns_that_are_not_canonical(data):
    q = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, n))
    sub = data.draw(st.sampled_from(enumerate_rank(n, k, q)))
    cols = [[int(x) for x in sub.matrix[:, j]] for j in range(k)]
    j = data.draw(st.integers(0, k - 1))
    edit = data.draw(st.sampled_from(["scale", "swap", "add"]))
    if edit == "scale":
        s = data.draw(st.integers(1, q - 1))
        cols[j] = [s * x % q for x in cols[j]]
    elif k > 1:
        i = data.draw(st.integers(0, k - 1).filter(lambda i: i != j))
        if edit == "swap":
            cols[i], cols[j] = cols[j], cols[i]
        else:
            cols[i] = [(x + y) % q for x, y in zip(cols[i], cols[j])]
    stored = np.array(cols, dtype=np.int64).reshape(k, n).T
    expect = Subspace.from_matrix(q, stored)
    assert expect is sub
    assert Subspace.from_json(q, {"n": n, "k": k, "cols": cols}) is expect


# each malformed subspace with the message it raises; the
# canonical subspaces of these ambients are interned first, so an input that
# reached the intern-table lookup too early would parse instead of failing
MALFORMED_SUBSPACES = [
    (3, {"n": 0, "k": 1, "cols": [[]]}, "the 1 columns span a subspace of dimension 0"),
    # the dimension fault is named before the range fault
    (2, {"n": 2, "k": 2, "cols": [[1, 1], [3, 3]]}, "the 2 columns span a subspace of dimension 1"),
    (2, {"n": 1, "k": 1, "cols": [[True]]}, "column 0 must hold integers, got [True]"),
    (3, {"n": 2, "k": 1, "cols": [[1, True]]}, "column 0 must hold integers, got [1, True]"),
    (2, {"n": 1, "k": 1, "cols": [[1.0]]}, "column 0 must hold integers, got [1.0]"),
    (3, {"n": 2, "k": 1, "cols": [[1.0, 0]]}, "column 0 must hold integers, got [1.0, 0]"),
    (3, {"n": 2, "k": 2, "cols": [[1, "0"], [0]]}, "column 0 must hold integers, got [1, '0']"),
    (3, {"n": 2, "k": 1, "cols": [[1, 3]]}, "column entries must lie in 0..2, got [[1, 3]]"),
    (3, {"n": 2, "k": 1, "cols": [[4, 0]]}, "column entries must lie in 0..2, got [[4, 0]]"),
    (3, {"n": 2, "k": 1, "cols": [[1, -2]]}, "column entries must lie in 0..2, got [[1, -2]]"),
    (3, {"n": 3, "k": 1, "cols": [[1, 0]]}, "column 0 has length 2, ambient is 3"),
    (3, {"n": 2, "k": 2, "cols": [[1, 0]]}, "expected 2 columns, got 1"),
    (3, {"n": True, "k": 1, "cols": [[1]]}, "subspace n must be an integer, got True"),
    (3, {"n": 1, "k": 1.0, "cols": [[1]]}, "subspace k must be an integer, got 1.0"),
    (3, {"n": 2, "k": 2, "cols": [[1, 0], [1, 0]]}, "the 2 columns span a subspace of dimension 1"),
    (3, {"n": 2, "k": 1, "cols": [[0, 0]]}, "the 1 columns span a subspace of dimension 0"),
    (4, {"n": 2, "k": 1, "cols": [[1, 0]]}, "q must be prime, got 4"),
    (131, {"n": 2, "k": 1, "cols": [[1, 0]]}, "q must be below 128, got 131"),
]


@pytest.mark.parametrize("q, obj, message", MALFORMED_SUBSPACES)
def test_from_json_names_each_fault(q, obj, message):
    for field in (2, 3):
        for n in range(4):
            enumerate_all(n, field)
    with pytest.raises(ValueError) as exc:
        Subspace.from_json(q, obj)
    assert str(exc.value) == message


def test_field_order_is_capped_where_entries_fit_int8():
    assert MAX_FIELD_ORDER == 128
    with pytest.raises(ValueError, match="below 128"):
        Subspace.from_matrix(257, [[1], [256]])
    with pytest.raises(ValueError, match="below 128"):
        Subspace.from_matrix(257, [[1], [0]])
    # the largest field keeps its residues apart
    top = Subspace.from_matrix(127, [[1], [126]])
    assert top is not Subspace.from_matrix(127, [[1], [0]])
    assert Subspace.from_json(127, top.to_json()) is top
    assert top.to_json()["cols"] == [[1, 126]]


def test_intern_table_holds_only_normal_forms():
    # the recognition in from_json rests on this: every interned matrix
    # is its own Schubert normal form
    for q in (2, 3):
        enumerate_all(3, q)
        restrict(Subspace.full(q, 3).hat().embed(5), 4)
    for sub in list(Subspace._interned.values()):
        if sub.k:
            redo = subspaces_from_matrix_batch(sub.q, sub.matrix.astype(np.int64)[None])[0]
            assert redo is sub


def test_sort_key_orders_enumeration():
    for q in (2, 3):
        for k in range(4):
            seq = enumerate_rank(3, k, q)
            keys = [s.sort_key() for s in seq]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


def test_from_matrix_is_a_batch_of_one():
    rng = random.Random(11)
    cases = [
        (3, [[-1, 5, 0, 7], [2, -3, 0, 4]]),  # negative, >= q, a zero column, c > n
        (2, [[0, 0, 0], [0, 0, 0]]),  # only zero columns
        (5, np.zeros((0, 3), dtype=np.int64)),  # n = 0
        (5, np.zeros((3, 0), dtype=np.int64)),  # no columns
    ]
    for q in (2, 3, 5):
        for _ in range(40):
            n, c = rng.randint(0, 4), rng.randint(0, 6)
            entries = [rng.randint(-2 * q, 2 * q) for _ in range(n * c)]
            cases.append((q, np.array(entries, dtype=np.int64).reshape(n, c)))
    for q, mat in cases:
        mat = np.asarray(mat, dtype=np.int64)
        assert Subspace.from_matrix(q, mat) is subspaces_from_matrix_batch(q, mat[None])[0]


@pytest.mark.parametrize(
    "mat",
    [
        [[1.7], [2.2]],
        [[1], [2.0]],
        [["1"], ["2"]],
        [[True], [False]],
        [[True], [2**70]],  # an object array: each entry is looked at
        [[None], [1]],
        np.array([[1.0], [2.0]]),
    ],
)
def test_from_matrix_refuses_entries_that_are_not_ints(mat):
    with pytest.raises(TypeError, match="^matrix entries must be integers, got "):
        Subspace.from_matrix(3, mat)


def test_from_matrix_accepts_python_and_numpy_ints_and_empty_matrices():
    line = Subspace.span(3, 2, [(1, 2)])
    assert Subspace.from_matrix(3, [[1], [2]]) is line
    assert Subspace.from_matrix(3, [[np.int64(1)], [np.uint8(2)]]) is line
    assert Subspace.from_matrix(3, np.array([[1], [2]], dtype=object)) is line
    # [[], []] reads as an empty float array, as before
    assert Subspace.from_matrix(3, [[], []]) is Subspace.zero(3, 2)
    assert Subspace.from_matrix(3, np.zeros((3, 0))) is Subspace.zero(3, 3)
    with pytest.raises(OverflowError):
        Subspace.from_matrix(3, [[1], [2**70]])
