"""Enumeration, the up operator and the inner product on the lattice space."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qjordan import (
    CycInt,
    LatticeVector,
    Subspace,
    characters,
    construct_sjb,
    covers_of,
    enumerate_all,
    enumerate_rank,
    gamma,
    gram,
    gram_pairs,
    inner,
    q_binomial,
    theta,
    up_apply,
    up_mismatches,
)
from qjordan.lattice import _image_mismatches, _plane_dtype

from fq import covers


def test_enumerate_rank_counts_and_edges():
    assert enumerate_rank(3, 0, 2) == (Subspace.zero(2, 3),)
    assert len(enumerate_rank(3, 1, 2)) == 7
    assert len(enumerate_rank(4, 2, 2)) == 35
    assert enumerate_rank(3, 4, 2) == ()
    assert enumerate_rank(3, -1, 2) == ()
    for q in (2, 3):
        for n in range(5 if q == 2 else 4):
            for k in range(n + 1):
                seq = enumerate_rank(n, k, q)
                assert len(seq) == q_binomial(n, k, q)
                assert len(set(seq)) == len(seq)


def test_enumerate_rank_is_deterministic():
    first = [s.to_json() for s in enumerate_rank(4, 2, 3)]
    second = [s.to_json() for s in enumerate_rank(4, 2, 3)]
    assert first == second
    # the whole documented order: pivot sets ascending, then digits
    for q, n in [(2, 5), (3, 4), (5, 3)]:
        for k in range(n + 1):
            seq = enumerate_rank(n, k, q)
            assert seq == tuple(sorted(seq, key=Subspace.sort_key)), (q, n, k)
    lines = enumerate_rank(3, 1, 2)
    assert [s.to_json()["cols"] for s in lines[:4]] == [
        [[1, 0, 0]],
        [[1, 0, 1]],
        [[1, 1, 0]],
        [[1, 1, 1]],
    ]


def test_covers():
    zero = Subspace.zero(2, 2)
    assert covers_of(Subspace.full(2, 2)) == ()
    assert len(covers_of(zero)) == 3
    for q in (2, 3):
        for k in range(3):
            for x in enumerate_rank(3, k, q):
                cov = covers_of(x)
                assert len(cov) == q_binomial(3 - k, 1, q)
                for y in cov:
                    assert covers(y, x)


def test_up_apply_examples():
    q2full = LatticeVector.basis(Subspace.full(2, 2))
    assert up_apply(q2full).is_zero

    v = up_apply(LatticeVector.basis(Subspace.zero(2, 2)))
    lines = enumerate_rank(2, 1, 2)
    assert sorted(v.support(), key=Subspace.sort_key) == sorted(
        lines, key=Subspace.sort_key
    )
    assert all(v.coeff(x).to_int() == 1 for x in lines)

    vv = up_apply(v)
    assert vv.support() == (Subspace.full(2, 2),)
    assert vv.coeff(Subspace.full(2, 2)).to_int() == 3


def test_up_matches_cover_incidence():
    for q in (2, 3):
        for k in range(3):
            for x in enumerate_rank(4 if q == 2 else 3, k, q):
                image = up_apply(LatticeVector.basis(x))
                assert set(image.support()) == set(covers_of(x))
                assert all(c.to_int() == 1 for _, c in image.items())


def test_up_is_linear():
    rng = random.Random(17)
    subs = enumerate_rank(3, 1, 2)
    for _ in range(40):
        v = LatticeVector(2, 3, {s: rng.randint(-5, 5) for s in subs})
        w = LatticeVector(2, 3, {s: rng.randint(-5, 5) for s in subs})
        c = rng.randint(-4, 4)
        assert up_apply(v + w) == up_apply(v) + up_apply(w)
        assert up_apply(v * c) == up_apply(v) * c


def test_inner_examples():
    e1 = Subspace.span(2, 2, [(1, 0)])
    e2 = Subspace.span(2, 2, [(0, 1)])
    e12 = Subspace.span(2, 2, [(1, 1)])
    assert inner(LatticeVector.basis(e1), LatticeVector.basis(e1)).to_int() == 1
    v = LatticeVector(2, 2, {e2: 1, e12: -1})
    w = LatticeVector(2, 2, {e1: -2, e2: 1, e12: 1})
    assert inner(v, w).is_zero
    assert inner(v, v).to_int() == 2
    assert inner(w, w).to_int() == 6


def test_inner_is_hermitian():
    rng = random.Random(23)
    subs = enumerate_rank(2, 1, 3)
    for _ in range(60):
        v = LatticeVector(
            3, 2, {s: CycInt.monomial(3, rng.randint(-4, 4), rng.randint(0, 2)) for s in subs}
        )
        w = LatticeVector(
            3, 2, {s: CycInt.monomial(3, rng.randint(-4, 4), rng.randint(0, 2)) for s in subs}
        )
        lam = CycInt.monomial(3, rng.randint(-3, 3), rng.randint(0, 2))
        assert inner(v, w) == inner(w, v).conj()
        assert inner(v * lam, w) == lam * inner(v, w)
        assert inner(v, w * lam) == lam.conj() * inner(v, w)
        norm = inner(v, v).to_int()
        assert norm >= 0
        assert (norm == 0) == v.is_zero


def test_space_mismatch_rejected():
    v = LatticeVector.basis(Subspace.zero(2, 2))
    w = LatticeVector.basis(Subspace.zero(2, 3))
    u = LatticeVector.basis(Subspace.zero(3, 2))
    with pytest.raises(ValueError):
        inner(v, w)
    with pytest.raises(ValueError):
        v + u


def test_homogeneity_and_rank():
    # ranks() == {r} says "nonzero and homogeneous of rank r"
    assert LatticeVector.zero(2, 2).ranks() == set()
    v = LatticeVector.basis(Subspace.zero(2, 2)) + LatticeVector.basis(
        Subspace.full(2, 2)
    )
    assert v.ranks() == {0, 2}
    line = LatticeVector.basis(Subspace.span(2, 2, [(1, 1)]))
    assert line.ranks() == {1}
    assert (line + LatticeVector.basis(Subspace.span(2, 2, [(1, 0)]))).ranks() == {1}


def test_vector_json_roundtrip():
    rng = random.Random(31)
    subs = enumerate_rank(3, 2, 3)
    v = LatticeVector(
        3,
        3,
        {s: CycInt(3, (rng.randint(-9, 9), rng.randint(-9, 9))) for s in subs[:5]},
    )
    assert LatticeVector.from_json(v.to_json()) == v
    payload = v.to_json()
    assert payload["n"] == 3 and payload["q"] == 3


def test_zero_coefficients_dropped():
    e1 = Subspace.span(2, 2, [(1, 0)])
    v = LatticeVector(2, 2, {e1: 0})
    assert v.is_zero and len(v) == 0
    w = LatticeVector(2, 2, {e1: 3}) + LatticeVector(2, 2, {e1: -3})
    assert w.is_zero


def test_public_constructor_validates_every_term():
    line = Subspace.span(3, 2, [(1, 1)])
    with pytest.raises(ValueError, match="does not live"):
        LatticeVector(3, 3, {line: 1})
    with pytest.raises(ValueError, match="does not live"):
        LatticeVector(2, 2, {Subspace.span(2, 2, [(1, 1)]): 1, line: 1})
    with pytest.raises(ValueError, match="prime"):
        LatticeVector(3, 2, {line: CycInt.one(5)})
    for bad in (1.5, "1", None, (1, 0)):
        with pytest.raises(TypeError):
            LatticeVector(3, 2, {line: bad})
    assert LatticeVector(3, 2, {line: 2}).coeff(line) == CycInt.from_int(3, 2)


def test_vectors_are_immutable():
    line = Subspace.span(3, 2, [(1, 1)])
    built = [
        LatticeVector.basis(Subspace.zero(2, 2)),
        LatticeVector(3, 2, {line: 2}),
        LatticeVector(3, 2, {line: 2}) + LatticeVector(3, 2, {line: 1}),
        up_apply(LatticeVector(3, 2, {line: 2})),
    ]
    for v in built:
        before = v.to_json()
        with pytest.raises(AttributeError):
            v.q = 3
        with pytest.raises(AttributeError):
            v._terms = {}
        with pytest.raises(AttributeError):
            v.n = 5
        assert v.to_json() == before


@st.composite
def vector_lists(draw):
    """Two lists of vectors with arbitrary (often non-monomial) coefficients
    over all of B_q(n), so right-hand supports often leave the left's."""
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    subs = enumerate_all(n, q)
    coeffs = st.lists(st.integers(-50, 50), min_size=q - 1, max_size=q - 1)

    def vectors():
        out = []
        for _ in range(draw(st.integers(0, 4))):
            support = draw(st.lists(st.sampled_from(subs), max_size=6, unique=True))
            out.append(
                LatticeVector(q, n, {s: CycInt(q, tuple(draw(coeffs))) for s in support})
            )
        return out

    return vectors(), vectors()


def assert_gram_matches_inner(vectors, g):
    assert g.shape[:2] == (len(vectors), len(vectors))
    for i, v in enumerate(vectors):
        for j, w in enumerate(vectors):
            assert tuple(g[i, j]) == inner(v, w).coeffs, (i, j)


@settings(max_examples=200, deadline=None)
@given(vector_lists())
def test_gram_matches_inner(lists):
    left, right = lists
    assert_gram_matches_inner(left + right, gram(left + right))
    assert_gram_matches_inner(left, gram(left))


def test_gram_edge_lists():
    subs = enumerate_rank(2, 1, 3)
    v = LatticeVector(3, 2, {subs[0]: CycInt(3, (2, 1)), subs[1]: 5})
    outside = LatticeVector(3, 2, {subs[2]: CycInt(3, (1, -1))})
    assert gram([]).shape == (0, 0, 0)
    assert gram([v]).shape == (1, 1, 2)
    for vectors in [[v, v], [v, outside], [outside, v, outside]]:
        assert_gram_matches_inner(vectors, gram(vectors))
    with pytest.raises(ValueError):
        gram([v, LatticeVector.basis(Subspace.zero(3, 3))])


def test_gram_falls_back_to_python_ints_past_the_int64_bound():
    q, n = 5, 2
    subs = enumerate_all(n, q)
    rng = random.Random(41)
    big = 2**40

    def vector():
        return LatticeVector(
            q,
            n,
            {
                s: CycInt(q, tuple(rng.randint(-big, big) for _ in range(q - 1)))
                for s in rng.sample(subs, 5)
            },
        )

    left = [vector() for _ in range(4)]
    right = [vector() for _ in range(3)] + left[:1]
    g = gram(left + right)
    assert g.dtype == object
    assert_gram_matches_inner(left + right, g)
    small = [LatticeVector.basis(s) for s in subs[:3]]
    assert gram(small).dtype == np.int64


def test_plane_dtype_boundary():
    # int64 holds every magnitude up to 2^63 - 1, and no more
    assert _plane_dtype(2**63 - 1) is np.int64
    assert _plane_dtype(2**63) is object


def test_gram_blocks_agree(monkeypatch):
    basis = construct_sjb(3, 3)
    block = [chain.vector_at_rank(1) for chain in basis.chains]
    whole = gram(block)
    monkeypatch.setattr("qjordan.lattice._GRAM_BLOCK", 1)
    assert np.array_equal(gram(block), whole)
    assert_gram_matches_inner(block, whole)


def assert_pairs_match_inner(vectors, pairs, values):
    """The listed pairs run row-major over i <= j with their nonzero inner
    products as values, and every pair left out has inner product 0."""
    listed = [tuple(p) for p in pairs.tolist()]
    assert listed == sorted(set(listed)) and all(i <= j for i, j in listed)
    assert len(values) == len(listed)
    for (i, j), value in zip(listed, values):
        assert tuple(value) == inner(vectors[i], vectors[j]).coeffs, (i, j)
        assert any(value), (i, j)
    for i, v in enumerate(vectors):
        for j in range(i, len(vectors)):
            if (i, j) not in listed:
                assert inner(v, vectors[j]).is_zero, (i, j)


@settings(max_examples=200, deadline=None)
@given(vector_lists())
def test_gram_pairs_match_inner(lists):
    left, right = lists
    for vectors in (left + right, left):
        if vectors:
            assert_pairs_match_inner(vectors, *gram_pairs(vectors))


@st.composite
def gram_pair_cases(draw):
    """Vectors on a few subspaces, so that many meet, with zero vectors, a
    group A - B - C joined only through B at random places, and sometimes
    coefficients past the int64 bound; and a value for _GRAM_BLOCK."""
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 3))
    subs = enumerate_all(n, q)
    subs = draw(st.lists(st.sampled_from(subs), min_size=3, max_size=6, unique=True))
    bound = 2**40 if draw(st.booleans()) else 50
    coeffs = st.lists(st.integers(-bound, bound), min_size=q - 1, max_size=q - 1)

    def vector(support):
        return LatticeVector(q, n, {s: CycInt(q, tuple(draw(coeffs))) for s in support})

    vectors = [
        vector(draw(st.lists(st.sampled_from(subs), max_size=3, unique=True)))
        for _ in range(draw(st.integers(0, 8)))
    ]
    for support in ([subs[0]], [subs[0], subs[1]], [subs[1]]):
        vectors.insert(draw(st.integers(0, len(vectors))), vector(support))
    block = draw(st.sampled_from([1, 8, 1 << 13, 1 << 40]))
    return vectors, block


@settings(max_examples=200, deadline=None)
@given(gram_pair_cases())
def test_gram_pairs_is_the_nonzero_upper_triangle_of_gram(case):
    vectors, block = case
    g = gram(vectors)
    want = [(i, j) for i in range(len(vectors)) for j in range(i, len(vectors)) if g[i, j].any()]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("qjordan.lattice._GRAM_BLOCK", block)
        pairs, values = gram_pairs(vectors)
    assert [tuple(p) for p in pairs.tolist()] == want
    assert values.tolist() == [g[i, j].tolist() for i, j in want]


def test_gram_pairs_edge_lists(monkeypatch):
    subs = enumerate_rank(2, 1, 3)
    v = LatticeVector(3, 2, {subs[0]: CycInt(3, (2, 1)), subs[1]: 5})
    apart = LatticeVector(3, 2, {subs[2]: CycInt(3, (1, -1))})
    zero = LatticeVector.zero(3, 2)
    pairs, values = gram_pairs([])
    assert pairs.shape == (0, 2) and values.shape == (0, 0)
    pairs, values = gram_pairs([zero, zero])
    assert pairs.shape == (0, 2) and values.shape == (0, 2)
    # disjoint supports list only the diagonal; a shared one lists the pair
    pairs, _ = gram_pairs([v, apart, zero, v])
    assert pairs.tolist() == [[0, 0], [0, 3], [1, 1], [3, 3]]
    for vectors in [[v, v], [v, apart], [apart, zero, v, apart]]:
        assert_pairs_match_inner(vectors, *gram_pairs(vectors))
    # a pair whose shared subspaces sum to 0 is left out: <v, w> = 1 - 1
    w = LatticeVector(3, 2, {subs[0]: 1, subs[1]: -1})
    pairs, values = gram_pairs([LatticeVector(3, 2, {subs[0]: 1, subs[1]: 1}), w])
    assert pairs.tolist() == [[0, 0], [1, 1]] and values.tolist() == [[2, 0], [2, 0]]
    # A and C meet only through B: one group, and the pair (A, C) is 0
    a, c = LatticeVector.basis(subs[0]), LatticeVector.basis(subs[2])
    b = a + c
    pairs, _ = gram_pairs([a, apart, b, c])
    assert pairs.tolist() == [[0, 0], [0, 2], [1, 1], [1, 2], [1, 3], [2, 2], [2, 3], [3, 3]]
    # the last vector joins two groups, one of them through a vector that is
    # not its group's root; with one group per block, (1, 2) is still listed
    monkeypatch.setattr("qjordan.lattice._GRAM_BLOCK", 1)
    s0, s1, s2 = enumerate_rank(2, 1, 5)[:3]
    supports = [[s0], [s1], [s1, s2], [s0, s2]]
    joined = [LatticeVector(5, 2, dict.fromkeys(support, 1)) for support in supports]
    assert_pairs_match_inner(joined, *gram_pairs(joined))
    with pytest.raises(ValueError):
        gram_pairs([v, LatticeVector.basis(Subspace.zero(3, 3))])


def test_gram_pairs_fall_back_to_python_ints_past_the_int64_bound():
    q, n = 5, 2
    subs = enumerate_all(n, q)
    rng = random.Random(43)
    big = 2**40

    def vector():
        return LatticeVector(
            q,
            n,
            {
                s: CycInt(q, tuple(rng.randint(-big, big) for _ in range(q - 1)))
                for s in rng.sample(subs, 5)
            },
        )

    vectors = [vector() for _ in range(6)]
    pairs, values = gram_pairs(vectors)
    assert values.dtype == object
    assert_pairs_match_inner(vectors, pairs, values)
    small = [LatticeVector.basis(s) for s in subs[:3]]
    assert gram_pairs(small)[1].dtype == np.int64


def test_gram_pairs_chunks_agree(monkeypatch):
    # the decomposition's images: many meet on a subspace, more do not; each
    # group a block of its own, or all of them in one block
    n, q = 2, 3
    images = [theta(LatticeVector.basis(x)) for x in enumerate_all(n, q)] + [
        gamma(chi, LatticeVector.basis(y))
        for chi in characters(n, q)
        for y in enumerate_all(n - 1, q)
    ]
    pairs, values = gram_pairs(images)
    assert 0 < len(pairs) < len(images) * (len(images) + 1) // 2
    for block in (1, 1 << 40):
        monkeypatch.setattr("qjordan.lattice._GRAM_BLOCK", block)
        small_pairs, small_values = gram_pairs(images)
        assert np.array_equal(small_pairs, pairs) and np.array_equal(small_values, values)
    assert_pairs_match_inner(images, pairs, values)


@st.composite
def up_cases(draw):
    """Vectors with supports of mixed ranks, each paired with its image under
    U, a perturbed image or an unrelated vector."""
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, 3))
    subs = enumerate_all(n, q)
    coeffs = st.lists(st.integers(-50, 50), min_size=q - 1, max_size=q - 1)

    def vector():
        support = draw(st.lists(st.sampled_from(subs), max_size=5, unique=True))
        return LatticeVector(q, n, {s: CycInt(q, tuple(draw(coeffs))) for s in support})

    vectors, successors = [], []
    for _ in range(draw(st.integers(0, 5))):
        v = vector()
        kind = draw(st.sampled_from(["image", "perturbed", "unrelated"]))
        image = up_apply(v)
        successors.append(
            image if kind == "image" else image + vector() if kind == "perturbed" else vector()
        )
        vectors.append(v)
    return vectors, successors


@settings(max_examples=200, deadline=None)
@given(up_cases())
def test_up_mismatches_matches_up_apply(case):
    vectors, successors = case
    got = up_mismatches(vectors, successors)
    assert got.dtype == bool and got.shape == (len(vectors),)
    assert got.tolist() == [up_apply(v) != s for v, s in zip(vectors, successors)]


def test_up_mismatches_edges_blocks_and_big_coefficients(monkeypatch):
    assert up_mismatches([], []).shape == (0,)
    vectors = [chain.vector_at_rank(1) for chain in construct_sjb(3, 3).chains]
    successors = [up_apply(v) for v in vectors]
    successors[3] = successors[3] * 2
    expect = [i == 3 for i in range(len(vectors))]
    assert up_mismatches(vectors, successors).tolist() == expect
    big = 2**62  # every image sum is past int64, so the planes hold Python ints
    scaled = up_mismatches([v * big for v in vectors], [s * big for s in successors])
    assert scaled.tolist() == expect
    monkeypatch.setattr("qjordan.lattice._UP_BLOCK", 1)
    assert up_mismatches(vectors, successors).tolist() == expect
    with pytest.raises(ValueError):
        up_mismatches(vectors, successors[:-1])
    with pytest.raises(ValueError):
        up_mismatches(vectors[:1], [LatticeVector.zero(3, 4)])


def test_up_mismatches_gathers_each_incidence_once(monkeypatch):
    """The targets come in runs of one source count each, so the gather
    holds every (cover, source) incidence once, with no padding."""
    # five of the 13 lines of F_3^3: a plane holds up to three of them
    vectors = [LatticeVector.basis(x) * (i + 1) for i, x in enumerate(enumerate_rank(3, 1, 3)[:5])]
    successors = [up_apply(v) for v in vectors]
    # the whole space is a target that covers no source
    successors[0] = successors[0] + LatticeVector.basis(Subspace.full(3, 3))
    seen = []

    def recorded(*args):
        seen.append(args)
        return _image_mismatches(*args)

    monkeypatch.setattr("qjordan.lattice._image_mismatches", recorded)
    assert up_mismatches(vectors, successors).tolist() == [True] + [False] * (len(vectors) - 1)
    ((_, sources, _, targets, gather),) = seen
    assert list(targets.values()) == list(range(len(targets)))
    assert sorted(g.shape[1] for g in gather) == [0, 1, 2, 3]
    rows = [row for g in gather for row in g.tolist()]
    assert len(rows) == len(targets)
    gathered = [(target, col) for target, row in zip(targets, rows) for col in row]
    assert sorted(gathered, key=str) == sorted(
        ((cover, col) for sub, col in sources.items() for cover in covers_of(sub)), key=str
    )
