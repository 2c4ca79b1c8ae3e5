"""Seeded mutations of one theta or gamma image: each verdict of
verify_decomposition, and the details of its scaling and orthogonality
checks, must equal a brute-force oracle built from up_apply and pairwise
inner."""

import random
from collections import defaultdict

import pytest

from qjordan import (
    CycInt,
    LatticeVector,
    characters,
    enumerate_all,
    enumerate_rank,
    inner,
    p_chi,
    up_apply,
    verify_decomposition,
)
import qjordan.haction as haction


def scaling_fault(name, items, norm):
    """The first pair (x, y), x no later than y, of one block's images whose
    inner product is not norm(x) on the diagonal and 0 off it."""
    for i, (x, v) in enumerate(items):
        for y, w in items[i:]:
            want = norm(x) if y is x else 0
            if inner(v, w) != want:
                if x.k != y.k:
                    return f"{name} images of {x!r}, {y!r} not orthogonal"
                return f"<{name} {x!r}, {name} {y!r}> != {want}"
    return ""


def orthogonality_fault(n, q, images):
    """The first image, theta ones then gamma ones character-major, that
    meets the embedded lattice or a later image of another block."""
    embedded = [LatticeVector.basis(x).embed(n + 1) for x in enumerate_all(n, q)]
    for i, (chi, x, image) in enumerate(images):
        name = f"theta image of {x!r}" if chi is None else f"gamma {x!r} (c={chi.c})"
        if any(not inner(image, e).is_zero for e in embedded):
            return f"{name} meets the embedded lattice"
        for chj, z, other in images[i + 1 :]:
            if chj != chi and not inner(image, other).is_zero:
                if chi is None:
                    return f"theta {x!r} not orthogonal to gamma {z!r} (c={chj.c})"
                return f"gamma blocks c={chi.c} and c={chj.c} not orthogonal ({x!r} vs {z!r})"
    return ""


def oracle(n, q):
    """Each check of verify_decomposition(n, q) by name: True for a pass, or
    the detail of a scaling or orthogonality check (empty for a pass)."""
    xs, ys, chars = enumerate_all(n, q), enumerate_all(n - 1, q), list(characters(n, q))
    thetas = [(x, haction.theta(LatticeVector.basis(x))) for x in xs]
    gammas = {chi: [(y, haction.gamma(chi, LatticeVector.basis(y))) for y in ys] for chi in chars}
    images = [(None, x, v) for x, v in thetas] + [
        (chi, y, v) for chi in chars for y, v in gammas[chi]
    ]
    gamma_fault = next(
        (
            f"c={chi.c}: {fault}"
            for chi in chars
            if (fault := scaling_fault("gamma", gammas[chi], lambda y: q ** (n + y.k)))
        ),
        "",
    )
    return {
        "dimension-count": not any(v.is_zero for _, _, v in images),
        "rankset-trivial-block": all(v.ranks() == {x.k + 1} for x, v in thetas),
        "rankset-character-blocks": all(
            v.ranks() == {y.k + 1} for chi in chars for y, v in gammas[chi]
        ),
        "up-splitting": all(
            up_apply(LatticeVector.basis(x)).embed(n + 1) + v
            == up_apply(LatticeVector.basis(x).embed(n + 1))
            for x, v in thetas
        ),
        "theta-scaling": scaling_fault("theta", thetas, lambda x: q ** (n - x.k)),
        "gamma-scaling": gamma_fault,
        "theta-intertwining": all(
            up_apply(v) == haction.theta(up_apply(LatticeVector.basis(x)) * q) for x, v in thetas
        ),
        "gamma-intertwining": all(
            up_apply(v) == haction.gamma(chi, up_apply(LatticeVector.basis(y)))
            for chi in chars
            for y, v in gammas[chi]
        ),
        "block-orthogonality": orthogonality_fault(n, q, images),
        "characters-per-hyperplane": all(
            sum(not p_chi(chi, x.hat()).is_zero for chi in chars) == q - 1
            for x in enumerate_rank(n, n - 1, q)
        ),
    }


def unit(rng, q):
    return CycInt.omega(q, rng.randrange(1, q))


def add_term(rng, image, n, q):
    """A term on a random subspace outside the hyperplane."""
    outside = [s for s in enumerate_all(n + 1, q) if s.matrix[-1].any()]
    coeff = CycInt.monomial(q, rng.choice([-1, 1, 2]), rng.randrange(q))
    return image + LatticeVector(q, n + 1, {rng.choice(outside): coeff})


def scale(rng, image, n, q):
    return image * rng.choice([2, -1, unit(rng, q)])


def move_to_embedded(rng, image, n, q):
    """One term moves onto an embedded subspace, of its own rank if the
    hyperplane has one."""
    sub, coeff = rng.choice(image.sorted_items())
    target = rng.choice(enumerate_rank(n, sub.k, q) or enumerate_all(n, q)).embed(n + 1)
    moved = LatticeVector(q, n + 1, {sub: -coeff}) + LatticeVector(q, n + 1, {target: coeff})
    return image + moved


def rotate(rng, image, n, q):
    """One coefficient times a nontrivial root of unity."""
    sub, coeff = rng.choice(image.sorted_items())
    return image + LatticeVector(q, n + 1, {sub: coeff * unit(rng, q) - coeff})


MUTATIONS = (add_term, scale, move_to_embedded, rotate)
DETAILED = ("theta-scaling", "gamma-scaling", "block-orthogonality")


def mutated(rng, image, n, q):
    """The image after one or two random mutations."""
    for _ in range(rng.choice([1, 1, 2])):
        if not image.is_zero:
            image = rng.choice(MUTATIONS)(rng, image, n, q)
    return image


def mutate_one_image(rng, monkeypatch, n, q):
    """Patch theta or gamma so that the image of one basis input is mutated."""
    theta, gamma = haction.theta, haction.gamma
    if rng.random() < 0.4:
        x = LatticeVector.basis(rng.choice(enumerate_all(n, q)))
        image = mutated(rng, theta(x), n, q)
        monkeypatch.setattr(haction, "theta", lambda v: image if v == x else theta(v))
    else:
        chi = rng.choice(list(characters(n, q)))
        y = LatticeVector.basis(rng.choice(enumerate_all(n - 1, q)))
        image = mutated(rng, gamma(chi, y), n, q)
        monkeypatch.setattr(
            haction,
            "gamma",
            lambda c, v, images=None: image if c == chi and v == y else gamma(c, v, images),
        )


@pytest.mark.parametrize("q, n", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_decomposition_verdicts_agree_with_a_brute_force_oracle(monkeypatch, q, n):
    assert_verdicts_agree_with_the_oracle(monkeypatch, q, n)


def test_decomposition_verdicts_agree_across_small_gram_blocks(monkeypatch):
    # at (2,3) the 16 groups of images fill 12 blocks at a bound of 64
    # vectors x terms, a few small groups to a block; an image mutated onto
    # another group merges groups that sat in different blocks
    monkeypatch.setattr("qjordan.lattice._GRAM_BLOCK", 64)
    assert_verdicts_agree_with_the_oracle(monkeypatch, 2, 3)


def assert_verdicts_agree_with_the_oracle(monkeypatch, q, n):
    """Forty seeded mutations at (q, n), each checked against the oracle."""
    seen = defaultdict(set)
    for seed in range(40):
        rng = random.Random(seed)
        with monkeypatch.context() as patch:
            mutate_one_image(rng, patch, n, q)
            checks = {c.name: c for c in verify_decomposition(n, q).checks}
            expect = oracle(n, q)
        assert checks.keys() == expect.keys()
        for name, want in expect.items():
            if name in DETAILED:
                assert checks[name].detail == want, (seed, name)
            else:
                assert checks[name].passed == want, (seed, name)
            seen[name].add(checks[name].passed)
    # the checks the image pairs decide were each seen to pass and to fail
    assert all(seen[name] == {True, False} for name in DETAILED), dict(seen)
