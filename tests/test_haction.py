"""Group action, characters, projections and the lattice decomposition."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qjordan import (
    Character,
    CycInt,
    LatticeVector,
    Subspace,
    adjacency_apply,
    characters,
    enumerate_all,
    enumerate_rank,
    find_hyperplane,
    gamma,
    inner,
    mu_apply,
    p_chi,
    q_binomial,
    theta,
    up_apply,
    verify_decomposition,
)
import qjordan.haction as haction
from qjordan.haction import orbit_table

from fq import act, character_multiplicity, exponent, group_vectors, h_map
from fq import perm_character, stabilizer


def A_elements(ambient, q, k=None):
    """Subspaces of F_q^ambient outside the standard hyperplane."""
    out = []
    ranks = range(ambient + 1) if k is None else [k]
    for kk in ranks:
        for x in enumerate_rank(ambient, kk, q):
            if x.matrix[ambient - 1 :].any():
                out.append(x)
    return out


def test_group_vector_enumeration_alignment():
    # the package indexes the group by the rows of all_coordinate_vectors;
    # the tuple reference the tests use must list it in the same order
    from qjordan.lattice import all_coordinate_vectors

    for q, n in [(2, 3), (3, 2), (5, 1), (2, 0)]:
        rows = [tuple(int(x) for x in r) for r in all_coordinate_vectors(n, q)]
        assert rows == list(group_vectors(n, q))


def test_act_identity_and_example():
    e2 = Subspace.span(2, 2, [(0, 1)])
    assert act((0,), e2) is e2
    assert act((1,), e2) == Subspace.span(2, 2, [(1, 1)])
    inside = Subspace.span(2, 2, [(1, 0)])
    with pytest.raises(ValueError):
        act((1,), inside)


def test_act_is_group_action():
    for q, ambient in [(2, 3), (3, 2)]:
        n = ambient - 1
        for x in A_elements(ambient, q):
            for a in group_vectors(n, q):
                for b in group_vectors(n, q):
                    ab = tuple((ai + bi) % q for ai, bi in zip(a, b))
                    assert act(a, act(b, x)) == act(ab, x)


def test_orbit_sizes():
    # orbit of hat(X) has size q^(n-k) for X of dimension k in F_q^n
    for q, n in [(2, 2), (3, 2), (2, 3)]:
        for x in enumerate_all(n, q):
            assert len(orbit_table(x.hat()).orbit) == q ** (n - x.k)


def test_h_map_and_eq_class():
    for q, n in [(2, 2), (3, 2)]:
        for z in enumerate_all(n, q):
            assert h_map(z.hat()) is z
    # ambient 3, q=2: classes of lines outside the plane have size 4
    for line in A_elements(3, 2, k=1):
        assert len(orbit_table(line).orbit) == 4
    # the class is simultaneously the group orbit and the h_map fiber
    for q, ambient in [(2, 3), (3, 3)]:
        n = ambient - 1
        for x in A_elements(ambient, q):
            cls = set(orbit_table(x).orbit)
            assert cls == {act(a, x) for a in group_vectors(n, q)}
            assert cls == {
                y for y in A_elements(ambient, q, k=x.k) if h_map(y) == h_map(x)
            }
            assert len(cls) == q ** (ambient - x.k)


def test_orbit_stabilizer():
    for q, ambient in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
        n = ambient - 1
        for x in A_elements(ambient, q):
            assert len(orbit_table(x).orbit) * len(stabilizer(x)) == q**n


def test_p_chi_trivial_character_sums_orbit():
    for q, ambient in [(2, 3), (3, 2)]:
        n = ambient - 1
        trivial = Character(q, (0,) * n)
        for x in A_elements(ambient, q):
            v = p_chi(trivial, x)
            stab = len(stabilizer(x))
            assert set(v.support()) == set(orbit_table(x).orbit)
            assert all(c.to_int() == stab for _, c in v.items())


def test_p_chi_worked_example_q3():
    chi = Character(3, (1, 2))
    spans = {
        1: Subspace.span(3, 2, [(1, 0)]),
        2: Subspace.span(3, 2, [(0, 1)]),
        3: Subspace.span(3, 2, [(1, 1)]),
        4: Subspace.span(3, 2, [(2, 1)]),
    }
    for idx in (1, 2, 4):
        assert p_chi(chi, spans[idx].hat()).is_zero
    survivor = p_chi(chi, spans[3].hat())
    assert not survivor.is_zero
    assert inner(survivor, survivor).to_int() == 27  # q^(n+k) = 3^(2+1)
    assert find_hyperplane(chi) == spans[3]


def test_p_chi_vanishing_matches_stabilizer_criterion():
    for q, ambient in [(2, 3), (3, 3)]:
        n = ambient - 1
        for chi in [Character(q, c) for c in group_vectors(n, q)]:
            for x in A_elements(ambient, q):
                trivial_on_stab = all(exponent(chi, a) == 0 for a in stabilizer(x))
                assert p_chi(chi, x).is_zero != trivial_on_stab


def p_chi_by_definition(chi, images):
    """sum over every group vector a of conj(chi(a)) (a . x), given the
    images a . x in the order of ``group_vectors``."""
    q, terms = chi.q, {}
    for a, image in zip(group_vectors(chi.n, q), images):
        root = CycInt.omega(q, -exponent(chi, a) % q)
        terms[image] = terms[image] + root if image in terms else root
    return LatticeVector(q, chi.n + 1, terms)


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2), (5, 2), (2, 4)])
def test_p_chi_matches_its_definition_over_the_whole_group(q, n):
    outside = A_elements(n + 1, q)
    for x in outside:
        images = [act(a, x) for a in group_vectors(n, q)]
        for c in group_vectors(n, q):
            chi = Character(q, c)
            assert p_chi(chi, x) == p_chi_by_definition(chi, images), (x, c)
    # every hat is covered, and as many non-hats besides
    hats = {z.hat() for z in enumerate_all(n, q)}
    assert hats < set(outside)


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2), (5, 2), (2, 4)])
def test_orbit_table_group_vectors_and_stabilizer_basis(q, n):
    for x in A_elements(n + 1, q):
        table = orbit_table(x)
        assert table.stabilizer == Subspace.span(q, n, stabilizer(x))
        assert table.shifts.shape == (len(table.orbit), n)
        assert [act(tuple(a), x) for a in table.shifts.tolist()] == list(table.orbit)
        assert list(table.orbit) == sorted(table.orbit, key=Subspace.sort_key)
        assert len(table.orbit) == q ** (n - table.stabilizer.k)


def test_orbit_table_reduces_one_matrix_per_coset(monkeypatch):
    batches = []
    batch = haction.subspaces_from_matrix_batch

    def recorded(q, mats):
        batches.append(len(mats))
        return batch(q, mats)

    monkeypatch.setattr(haction, "subspaces_from_matrix_batch", recorded)
    for q, n in [(2, 3), (3, 2), (2, 4)]:
        for x in A_elements(n + 1, q):
            table = orbit_table.__wrapped__(x)  # past the cache: reduce afresh
            assert batches.pop() == len(table.orbit) == q ** (n - table.stabilizer.k)
            assert not batches


def test_theta_examples():
    zero1 = LatticeVector.basis(Subspace.zero(2, 1))
    img = theta(zero1)
    e2 = Subspace.span(2, 2, [(0, 1)])
    e12 = Subspace.span(2, 2, [(1, 1)])
    assert img == LatticeVector(2, 2, {e2: 1, e12: 1})
    assert inner(img, img).to_int() == 2  # q^(n-k) = 2^(1-0)

    full1 = LatticeVector.basis(Subspace.full(2, 1))
    assert theta(full1) == LatticeVector.basis(Subspace.full(2, 2))


def test_theta_scaling_and_intertwining():
    for q, n in [(2, 2), (2, 3), (3, 2)]:
        for x in enumerate_all(n, q):
            vx = LatticeVector.basis(x)
            bar = theta(vx)
            assert inner(bar, bar).to_int() == q ** (n - x.k)
            assert theta(up_apply(vx) * q) == up_apply(bar)
            for y in enumerate_all(n, q):
                if y is not x:
                    assert inner(bar, theta(LatticeVector.basis(y))).is_zero


def test_find_hyperplane_examples_and_kernel_characterization():
    assert find_hyperplane(Character(2, (1,))) == Subspace.zero(2, 1)
    assert find_hyperplane(Character(2, (1, 0))) == Subspace.span(2, 2, [(0, 1)])
    with pytest.raises(ValueError):
        find_hyperplane(Character(2, (0, 0)))
    for q, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 2), (7, 2)]:
        for chi in characters(n, q):
            hyper = find_hyperplane(chi)
            kernel = [
                v
                for v in group_vectors(n, q)
                if exponent(chi, v) == 0
            ]
            kernel_sub = Subspace.span(q, n, kernel)
            assert hyper == kernel_sub


def test_characters_per_hyperplane():
    for q, n in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2)]:
        for hyper in enumerate_rank(n, n - 1, q):
            hits = [chi for chi in characters(n, q) if find_hyperplane(chi) == hyper]
            assert len(hits) == q - 1


def test_gamma_example_q2():
    chi = Character(2, (1,))
    v = LatticeVector.basis(Subspace.zero(2, 0))
    img = gamma(chi, v)
    e2 = Subspace.span(2, 2, [(0, 1)])
    e12 = Subspace.span(2, 2, [(1, 1)])
    assert img == LatticeVector(2, 2, {e2: 1, e12: -1})
    assert inner(img, img).to_int() == 2  # q^(n+k) = 2^(1+0)
    assert up_apply(img).is_zero


def test_gamma_scaling_and_intertwining():
    for q, n in [(2, 2), (2, 3), (3, 2)]:
        for chi in characters(n, q):
            for y in enumerate_all(n - 1, q):
                vy = LatticeVector.basis(y)
                img = gamma(chi, vy)
                assert inner(img, img).to_int() == q ** (n + y.k)
                assert gamma(chi, up_apply(vy)) == up_apply(img)
                for z in enumerate_all(n - 1, q):
                    if z is not y:
                        assert inner(img, gamma(chi, LatticeVector.basis(z))).is_zero


def test_perm_character_counts():
    # a = 0 fixes everything: |A_q(n+1)_k| = q^(n-k+1) [n, k-1]_q
    for q, n in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        for k in range(1, n + 2):
            expect = q ** (n - k + 1) * q_binomial(n, k - 1, q)
            assert perm_character(n, k, (0,) * n, q) == expect
    assert perm_character(1, 1, (1,), 2) == 0
    for a in [(1, 0), (0, 1), (1, 1)]:
        assert perm_character(2, 2, a, 2) == 2


def test_perm_character_closed_forms():
    for q in (2, 3):
        for n in range(1, 4):
            for k in range(1, n + 2):
                for a in group_vectors(n, q):
                    got = perm_character(n, k, a, q)
                    if any(a):
                        expect = q ** (n - k + 1) * q_binomial(n - 1, k - 2, q)
                    else:
                        expect = q ** (n - k + 1) * q_binomial(n, k - 1, q)
                    assert got == expect
    with pytest.raises(ValueError):
        perm_character(2, 0, (0, 0), 2)


def test_character_multiplicities():
    for q in (2, 3):
        for n in range(1, 4):
            trivial = Character(q, (0,) * n)
            nontrivial = next(iter(characters(n, q)))
            for k in range(1, n + 2):
                assert character_multiplicity(trivial, n, k) == q_binomial(n, k - 1, q)
                assert character_multiplicity(nontrivial, n, k) == q_binomial(
                    n - 1, k - 1, q
                )


def test_verify_decomposition_small():
    for q, n in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        report = verify_decomposition(n, q)
        assert report.ok, report.summary()
    with pytest.raises(ValueError):
        verify_decomposition(0, 2)


def test_theta_scaling_names_a_scaled_image(monkeypatch):
    n, q = 2, 3
    target, later = enumerate_rank(n, 1, q)[2], enumerate_rank(n, 2, q)[0]
    original = haction.theta

    def scaled(v):
        image = original(v)
        if v in (LatticeVector.basis(target), LatticeVector.basis(later)):
            return image * 2
        return image

    monkeypatch.setattr(haction, "theta", scaled)
    check = {c.name: c for c in verify_decomposition(n, q).checks}["theta-scaling"]
    # both scaled images fail; the detail names the first in scan order
    assert not check.passed
    assert check.detail == f"<theta {target!r}, theta {target!r}> != {q ** (n - 1)}"


def test_gamma_scaling_names_a_scaled_image(monkeypatch):
    n, q = 2, 3
    chi = list(characters(n, q))[3]
    target = enumerate_rank(n - 1, 1, q)[0]
    original = haction.gamma

    def scaled(c, v, images=None):
        image = original(c, v, images)
        return image * 2 if c == chi and v == LatticeVector.basis(target) else image

    monkeypatch.setattr(haction, "gamma", scaled)
    check = {c.name: c for c in verify_decomposition(n, q).checks}["gamma-scaling"]
    assert not check.passed
    assert check.detail == (
        f"c={chi.c}: <gamma {target!r}, gamma {target!r}> != {q ** (n + 1)}"
    )


@st.composite
def gamma_cases(draw):
    """A nontrivial character and a multi-term vector of B_q(n-1) whose
    coefficients are arbitrary elements of Z[w], mostly not monomials."""
    q, n = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)]))
    chi = draw(st.sampled_from(list(characters(n, q))))
    subs = draw(st.lists(st.sampled_from(enumerate_all(n - 1, q)), min_size=1, unique=True))
    coeff = st.lists(st.integers(-3, 3), min_size=q - 1, max_size=q - 1)
    terms = {sub: CycInt(q, tuple(draw(coeff))) for sub in subs}
    return chi, LatticeVector(q, n - 1, terms)


@settings(max_examples=150, deadline=None)
@given(gamma_cases())
def test_gamma_is_the_sum_of_its_projected_terms(case):
    from qjordan.haction import _mu_hat

    chi, v = case
    hyper = find_hyperplane(chi)
    expect = sum(
        (coeff * p_chi(chi, _mu_hat(hyper, sub)) for sub, coeff in v.items()),
        LatticeVector.zero(v.q, chi.n + 1),
    )
    assert gamma(chi, v) == expect


def _decomposition_detail(n, q, name):
    check = {c.name: c for c in verify_decomposition(n, q).checks}[name]
    assert not check.passed
    return check.detail


# Each check below is made to fail on more than one input; the detail must
# name the input that the check's scan order meets first.


def test_rankset_trivial_block_names_the_first_bad_image(monkeypatch):
    n, q = 2, 3
    subs = enumerate_all(n, q)
    bad = [LatticeVector.basis(subs[5]), LatticeVector.basis(subs[2])]
    stray = LatticeVector.basis(Subspace.zero(q, n + 1))
    original = haction.theta

    def mixed(v):
        image = original(v)
        return image + stray if any(v == b for b in bad) else image

    monkeypatch.setattr(haction, "theta", mixed)
    assert _decomposition_detail(n, q, "rankset-trivial-block") == (
        f"theta image of {subs[2]!r} is not homogeneous of rank {subs[2].k + 1}"
    )


def test_rankset_character_blocks_names_the_first_bad_image(monkeypatch):
    n, q = 3, 2
    chars, ys = list(characters(n, q)), enumerate_all(n - 1, q)
    # block order first: (chars[1], ys[3]) precedes (chars[4], ys[0])
    bad = {(chars[4], 0), (chars[1], 3), (chars[1], 4)}
    stray = LatticeVector.basis(Subspace.zero(q, n + 1))
    original = haction.gamma

    def mixed(chi, v, images=None):
        image = original(chi, v, images)
        hit = any((chi, i) in bad and v == LatticeVector.basis(y) for i, y in enumerate(ys))
        return image + stray if hit else image

    monkeypatch.setattr(haction, "gamma", mixed)
    assert _decomposition_detail(n, q, "rankset-character-blocks") == (
        f"gamma image of {ys[3]!r} under c={chars[1].c} has wrong rank"
    )


def test_up_splitting_names_the_first_bad_subspace(monkeypatch):
    n, q = 2, 3
    subs = enumerate_all(n, q)
    # U_n is doubled on these inputs, so U_(n+1) x != U_n x + theta x there
    bad = [LatticeVector.basis(subs[i]) for i in (4, 1, 5)]
    original = haction.up_apply

    def doubled(v):
        image = original(v)
        return image * 2 if any(v == b for b in bad) else image

    monkeypatch.setattr(haction, "up_apply", doubled)
    assert _decomposition_detail(n, q, "up-splitting") == f"splitting fails on {subs[1]!r}"


def test_zero_images_fail_the_rank_checks(monkeypatch):
    n, q = 2, 3
    x = enumerate_all(n, q)[3]
    y = enumerate_all(n - 1, q)[1]
    chi = list(characters(n, q))[2]
    theta0, gamma0 = haction.theta, haction.gamma

    def zero_theta(v):
        return LatticeVector.zero(q, n + 1) if v == LatticeVector.basis(x) else theta0(v)

    def zero_gamma(c, v, images=None):
        hit = c == chi and v == LatticeVector.basis(y)
        return LatticeVector.zero(q, n + 1) if hit else gamma0(c, v, images)

    monkeypatch.setattr(haction, "theta", zero_theta)
    checks = {c.name: c for c in verify_decomposition(n, q).checks}
    assert not checks["dimension-count"].passed
    assert checks["rankset-trivial-block"].detail == (
        f"theta image of {x!r} is not homogeneous of rank {x.k + 1}"
    )
    assert checks["rankset-character-blocks"].passed
    # a zero image has no diagonal entry among the pairs that meet, and
    # still fails its scaling
    assert checks["theta-scaling"].detail == f"<theta {x!r}, theta {x!r}> != {q ** (n - x.k)}"
    assert checks["gamma-scaling"].passed

    monkeypatch.setattr(haction, "theta", theta0)
    monkeypatch.setattr(haction, "gamma", zero_gamma)
    checks = {c.name: c for c in verify_decomposition(n, q).checks}
    assert not checks["dimension-count"].passed
    assert checks["rankset-trivial-block"].passed
    assert checks["rankset-character-blocks"].detail == (
        f"gamma image of {y!r} under c={chi.c} has wrong rank"
    )
    assert checks["theta-scaling"].passed
    assert checks["gamma-scaling"].detail == (
        f"c={chi.c}: <gamma {y!r}, gamma {y!r}> != {q ** (n + y.k)}"
    )


def test_verify_decomposition_applies_up_only_below_the_top_level(monkeypatch):
    n, q = 2, 3
    ambients = []
    original = haction.up_apply

    def recorded(v):
        ambients.append(v.n)
        return original(v)

    monkeypatch.setattr(haction, "up_apply", recorded)
    assert verify_decomposition(n, q).ok
    # one U per basis vector of B_q(n) and of B_q(n-1), none on B_q(n+1)
    assert sorted(ambients) == [n - 1] * len(enumerate_all(n - 1, q)) + [n] * len(
        enumerate_all(n, q)
    )


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2), (2, 4)])
def test_verify_decomposition_asks_p_chi_once_per_character_and_subspace(monkeypatch, q, n):
    calls = Counter()
    original = haction.p_chi

    def counted(chi, x):
        calls[chi, x] += 1
        return original(chi, x)

    monkeypatch.setattr(haction, "p_chi", counted)
    assert verify_decomposition(n, q).ok
    # gamma's images and the intertwining images share one table per
    # character, so each subspace gamma reaches is asked for once; the
    # hyperplane count then asks for each hyperplane's hat under each chi
    chars = list(characters(n, q))
    want = Counter(
        (chi, mu_apply(find_hyperplane(chi), y).hat())
        for chi in chars
        for y in enumerate_all(n - 1, q)
    )
    want.update((chi, x.hat()) for chi in chars for x in enumerate_rank(n, n - 1, q))
    assert calls == want


def test_theta_intertwining_names_the_first_bad_subspace(monkeypatch):
    n, q = 2, 3
    subs = enumerate_all(n, q)
    bad = [LatticeVector.basis(subs[i]) for i in (4, 3)]
    original = haction.theta

    def doubled(v):
        image = original(v)
        return image * 2 if any(v == b for b in bad) else image

    monkeypatch.setattr(haction, "theta", doubled)
    assert _decomposition_detail(n, q, "theta-intertwining") == (
        f"theta intertwining fails on {subs[3]!r}"
    )


def test_gamma_intertwining_names_the_first_bad_pair(monkeypatch):
    n, q = 3, 2
    chars, ys = list(characters(n, q)), enumerate_all(n - 1, q)
    # characters are the outer loop: (chars[2], ys[2]) precedes (chars[5], ys[0]);
    # ys[0..3] have rank <= 1, so U of them never meets a doubled input
    bad = {(chars[5], 0), (chars[2], 2), (chars[2], 3)}
    original = haction.gamma

    def doubled(chi, v, images=None):
        image = original(chi, v, images)
        hit = any((chi, i) in bad and v == LatticeVector.basis(y) for i, y in enumerate(ys))
        return image * 2 if hit else image

    monkeypatch.setattr(haction, "gamma", doubled)
    assert _decomposition_detail(n, q, "gamma-intertwining") == (
        f"gamma intertwining fails on {ys[2]!r} for c={chars[2].c}"
    )


def test_characters_per_hyperplane_names_the_first_bad_hyperplane(monkeypatch):
    n, q = 2, 3
    hyperplanes = enumerate_rank(n, n - 1, q)
    bad = {hyperplanes[3].hat(), hyperplanes[1].hat()}
    original = haction.p_chi

    def surviving(chi, x):
        # every character survives on the bad hyperplanes
        image = original(chi, x)
        return LatticeVector.basis(x) if image.is_zero and x in bad else image

    monkeypatch.setattr(haction, "p_chi", surviving)
    assert _decomposition_detail(n, q, "characters-per-hyperplane") == (
        f"{hyperplanes[1]!r} survives for {q**n - 1} characters, expected {q - 1}"
    )


def test_block_orthogonality_tests_theta_rows_against_the_whole_lattice(monkeypatch):
    n, q = 2, 3
    zero = Subspace.zero(q, n)
    stray = LatticeVector.basis(enumerate_rank(n, 1, q)[2].embed(n + 1))
    original = haction.theta

    def leaky(v):
        # the image of the zero subspace gains a term on another embedded line
        image = original(v)
        return image + stray if v == LatticeVector.basis(zero) else image

    monkeypatch.setattr(haction, "theta", leaky)
    assert _decomposition_detail(n, q, "block-orthogonality") == (
        f"theta image of {zero!r} meets the embedded lattice"
    )


def _block_orthogonality_scan(n, q):
    """The first block-orthogonality fault of a pairwise inner scan: each
    theta image, then each gamma image (character-major), against the
    embedded basis of B_q(n) and then against every later image of another
    block."""
    xs, ys = enumerate_all(n, q), enumerate_all(n - 1, q)
    images = [(None, x, haction.theta(LatticeVector.basis(x))) for x in xs] + [
        (chi, y, haction.gamma(chi, LatticeVector.basis(y)))
        for chi in characters(n, q)
        for y in ys
    ]
    embedded = [LatticeVector.basis(x).embed(n + 1) for x in xs]
    for i, (chi, x, image) in enumerate(images):
        name = f"theta image of {x!r}" if chi is None else f"gamma {x!r} (c={chi.c})"
        if any(not inner(image, e).is_zero for e in embedded):
            return f"{name} meets the embedded lattice"
        for chj, z, other in images[i + 1 :]:
            if chj != chi and not inner(image, other).is_zero:
                if chi is None:
                    return f"theta {x!r} not orthogonal to gamma {z!r} (c={chj.c})"
                return f"gamma blocks c={chi.c} and c={chj.c} not orthogonal ({x!r} vs {z!r})"
    return None


def _gamma_with_extra_terms(extra):
    """gamma, with extra[(chi, y)] added to the image of (chi, y)."""
    original = haction.gamma

    def patched(chi, v, images=None):
        image = original(chi, v, images)
        for (c, y), more in extra.items():
            if c == chi and v == LatticeVector.basis(y):
                image = image + more
        return image

    return patched


def test_block_orthogonality_names_a_gamma_image_on_the_embedded_lattice(monkeypatch):
    n, q = 2, 3
    chars, ys = list(characters(n, q)), enumerate_all(n - 1, q)
    line = LatticeVector.basis(enumerate_rank(n, 1, q)[1].embed(n + 1))
    # character-major: (chars[2], ys[1]) is met before (chars[5], ys[0])
    extra = {(chars[5], ys[0]): line, (chars[2], ys[1]): line}
    monkeypatch.setattr(haction, "gamma", _gamma_with_extra_terms(extra))
    detail = _decomposition_detail(n, q, "block-orthogonality")
    assert detail == f"gamma {ys[1]!r} (c={chars[2].c}) meets the embedded lattice"
    assert detail == _block_orthogonality_scan(n, q)


def test_block_orthogonality_names_a_theta_image_meeting_a_gamma_block(monkeypatch):
    n, q = 2, 3
    xs, ys, chars = enumerate_all(n, q), enumerate_all(n - 1, q), list(characters(n, q))
    bad = {
        xs[4]: gamma(chars[4], LatticeVector.basis(ys[1])),
        xs[2]: gamma(chars[1], LatticeVector.basis(ys[0])),
    }
    original = haction.theta

    def leaky(v):
        image = original(v)
        for x, more in bad.items():
            if v == LatticeVector.basis(x):
                image = image + more
        return image

    monkeypatch.setattr(haction, "theta", leaky)
    detail = _decomposition_detail(n, q, "block-orthogonality")
    assert detail.startswith(f"theta {xs[2]!r} not orthogonal to gamma ")
    assert detail == _block_orthogonality_scan(n, q)


def test_block_orthogonality_names_two_gamma_blocks_that_meet(monkeypatch):
    n, q = 3, 2
    chars, ys = list(characters(n, q)), enumerate_all(n - 1, q)
    extra = {
        (chars[4], ys[2]): gamma(chars[6], LatticeVector.basis(ys[3])),
        (chars[1], ys[4]): gamma(chars[3], LatticeVector.basis(ys[0])),
    }
    monkeypatch.setattr(haction, "gamma", _gamma_with_extra_terms(extra))
    detail = _decomposition_detail(n, q, "block-orthogonality")
    assert detail.startswith(f"gamma blocks c={chars[1].c} and ")
    assert detail == _block_orthogonality_scan(n, q)


@st.composite
def package_made_cases(draw):
    """A small lattice with a character, vectors of B_q(n-1), B_q(n) and of
    rank m in B_q(n), and a subspace of F_q^(n+1) outside the hyperplane.
    Coefficients are small elements of Z[w], so sums often cancel."""
    q, n = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]))
    chi = draw(st.sampled_from(list(characters(n, q))))
    coeff = st.lists(st.integers(-2, 2), min_size=q - 1, max_size=q - 1)

    def vector(ambient, subs):
        chosen = draw(st.lists(st.sampled_from(subs), min_size=1, max_size=6, unique=True))
        return LatticeVector(q, ambient, {s: CycInt(q, tuple(draw(coeff))) for s in chosen})

    m = draw(st.integers(0, n // 2))
    return (
        chi,
        vector(n - 1, enumerate_all(n - 1, q)),
        vector(n, enumerate_all(n, q)),
        m,
        vector(n, enumerate_rank(n, m, q)),
        draw(st.sampled_from(A_elements(n + 1, q))),
    )


@settings(max_examples=120, deadline=None)
@given(package_made_cases())
def test_package_made_vectors_pass_the_public_checks(case):
    chi, u, v, m, w, x = case
    n, q = v.n, v.q
    results = [p_chi(chi, x), theta(v), gamma(chi, u), up_apply(v)]
    results += [adjacency_apply(n, m, i, w) for i in range(m + 1)]
    for r in results:
        assert r == LatticeVector(q, r.n, dict(r.items()))
        assert not any(c.is_zero for _, c in r.items())


def test_package_made_vectors_drop_cancelled_sums():
    a, b, c = enumerate_rank(2, 1, 2)
    diff = LatticeVector.basis(a) - LatticeVector.basis(b)
    # both lines lie under the whole plane, and each is adjacent to c
    assert up_apply(diff).is_zero and len(up_apply(diff)) == 0
    image = adjacency_apply(2, 1, 1, diff)
    assert c not in image.support()
    assert image == LatticeVector.basis(b) - LatticeVector.basis(a)
    # a character that is nontrivial on the stabilizer projects to zero
    full = Subspace.full(2, 3)
    assert all(p_chi(chi, full).is_zero for chi in characters(2, 2))
