"""The translation group on subspaces outside a hyperplane, and its characters.

F_q^n acts on F_q^(n+1) through the unitriangular matrices fixing the
embedded F_q^n pointwise: the vector a sends (b, c) to (b + c*a, c).  The
action permutes the subspaces NOT contained in F_q^n; its orbits are the
fibers of X -> X intersect F_q^n.  Characters are indexed by vectors c with
chi_c(a) = w^(c.a), and the associated (unnormalized) isotypic projections
p(chi) decompose the span of those subspaces.  The group is enumerated once,
as the rows of ``all_coordinate_vectors(n, q)`` in lexicographic order: the
orbit tables, the exponents c.a and the characters all index that one array,
whose row 0 is the identity.  The maps built here (theta,
the character projections, and the rank-raising gamma) realize the
Goldman-Rota recurrence at the level of vector spaces and drive the Jordan
basis construction in :mod:`qjordan.sjb`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .cyclotomic import CycInt
from .gflinalg import Subspace, mu_apply, subspaces_from_matrix_batch
from .lattice import (
    LatticeVector,
    _accumulate,
    all_coordinate_vectors,
    enumerate_all,
    enumerate_rank,
    gram,
    up_apply,
    up_mismatches,
)
from .qcombinatorics import galois_number
from .reporting import Check, Report


@dataclass(frozen=True)
class Character:
    """The character a -> w^(c.a) of the additive group F_q^n."""

    q: int
    c: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(self.c))
        if any(x < 0 or x >= self.q for x in self.c):
            raise ValueError(f"character vector entries must lie in 0..{self.q - 1}")

    @property
    def n(self) -> int:
        return len(self.c)

    @property
    def is_trivial(self) -> bool:
        return not any(self.c)


def characters(n: int, q: int):
    """The nontrivial characters of F_q^n in lexicographic order of their
    index vectors: every group vector but the first, which is zero."""
    for c in all_coordinate_vectors(n, q)[1:].tolist():
        yield Character(q, c)


@dataclass(frozen=True)
class OrbitTable:
    """Orbit of one subspace with the full action table.

    orbit        -- the distinct images, sorted canonically
    group_index  -- group_index[g] = position of (g . base) for the g-th
                    group vector in lexicographic order; group vector 0 is
                    the identity, so group_index[0] is the base's position
    """

    orbit: tuple[Subspace, ...]
    group_index: tuple[int, ...]


@cache
def orbit_table(x: Subspace) -> OrbitTable:
    """The orbit of x, a subspace outside the hyperplane, with its action table."""
    n, q = x.n - 1, x.q
    if n < 0 or not x.matrix[n].any():
        raise ValueError(f"{x!r} is contained in the fixed hyperplane")
    m = x.matrix.astype(np.int64)
    shifts = all_coordinate_vectors(n, q)  # one row per group vector, lex order
    mats = np.empty((len(shifts), x.n, x.k), dtype=np.int64)
    mats[:, :n, :] = (m[:n, :][None, :, :] + shifts[:, :, None] * m[n, :][None, None, :]) % q
    mats[:, n, :] = m[n, :]
    images = subspaces_from_matrix_batch(q, mats)
    orbit = tuple(sorted(set(images), key=Subspace.sort_key))
    position = {s: i for i, s in enumerate(orbit)}
    return OrbitTable(orbit, tuple(position[img] for img in images))


@cache
def _char_exponents(q: int, c: tuple[int, ...]) -> tuple[int, ...]:
    """c . a mod q for every group vector a, in the lexicographic order of
    ``all_coordinate_vectors``."""
    vecs = all_coordinate_vectors(len(c), q)
    return tuple(int(e) for e in vecs @ np.asarray(c, dtype=np.int64) % q)


def p_chi(chi: Character, x: Subspace) -> LatticeVector:
    """The projection sum over the group: sum_a conj(chi(a)) * (a . x).

    Kept unnormalized so every coefficient stays in Z[w]; the result is zero
    exactly when chi is nontrivial on the stabilizer of x.  Each orbit
    coefficient is accumulated as a histogram of root-of-unity exponents.
    """
    if x.n != chi.n + 1:
        raise ValueError(f"x lives in ambient {x.n}, character wants {chi.n + 1}")
    table = orbit_table(x)
    q = x.q
    hist = [[0] * q for _ in table.orbit]
    for idx, e in zip(table.group_index, _char_exponents(q, chi.c)):
        hist[idx][-e % q] += 1
    coeffs = [CycInt.from_root_counts(q, counts) for counts in hist]
    return LatticeVector._of(q, x.n, dict(zip(table.orbit, coeffs)))


def theta(v: LatticeVector) -> LatticeVector:
    """Sum each support subspace's class over the raised ambient space.

    Sends the basis element X of B_q(n) to the sum of the subspaces of
    F_q^(n+1) whose hyperplane intersection is X; raises rank by one and
    intertwines q*U_n with U_(n+1).
    """
    images = ((img, coeff) for sub, coeff in v.items() for img in orbit_table(sub.hat()).orbit)
    return LatticeVector._of(v.q, v.n + 1, _accumulate(images))


@cache
def find_hyperplane(chi: Character) -> Subspace:
    """The unique hyperplane of F_q^n (n = chi.n) whose raised class
    survives p(chi).

    p(chi) of x-hat survives exactly when chi is trivial on the stabilizer
    of x-hat.  The vector a fixes x-hat exactly when (a, 1) lies in x-hat,
    that is when a lies in x, so the stabilizer is x itself, and chi_c is
    trivial on it exactly when x = c^perp: c . x = 0 on every basis vector.
    """
    if chi.is_trivial:
        raise ValueError("find_hyperplane requires a nontrivial character")
    n = chi.n
    c = np.asarray(chi.c, dtype=np.int64)
    found = [x for x in enumerate_rank(n, n - 1, chi.q) if not (c @ x.matrix % chi.q).any()]
    if len(found) != 1:
        raise RuntimeError(
            f"expected exactly one surviving hyperplane for c={chi.c}, found {len(found)}"
        )
    return found[0]


@cache
def _mu_hat(hyper: Subspace, sub: Subspace) -> Subspace:
    return mu_apply(hyper, sub).hat()


def gamma(chi: Character, v: LatticeVector) -> LatticeVector:
    """Rank-raising map from B_q(n-1) vectors into the chi-isotypic block.

    Composition of the hyperplane reparametrization with Y -> p(chi)(Y-hat);
    commutes with the up operators and scales inner products of rank-k
    vectors by q^(n+k).
    """
    if chi.is_trivial:
        raise ValueError("gamma requires a nontrivial character")
    n = chi.n
    if v.n != n - 1:
        raise ValueError(f"gamma input must live in ambient {n - 1}, got {v.n}")
    hyper = find_hyperplane(chi)
    images = (
        (img, c * coeff)
        for sub, coeff in v.items()
        for img, c in p_chi(chi, _mu_hat(hyper, sub)).items()
    )
    return LatticeVector._of(v.q, n + 1, _accumulate(images))


def verify_decomposition(n: int, q: int) -> Report:
    """Check the orthogonal decomposition of V(B_q(n+1)) induced by the
    group action: dimension counts, ranks, the up-operator splitting,
    both inner-product scalings, intertwining, block orthogonality and the
    q-1 count of surviving characters per hyperplane.

    Each U identity is decided for all its vectors by one ``up_mismatches``
    call, and every inner-product identity is read off one exact Gram
    matrix and the images' supports; each failure names the input that a
    scan meets first.
    """
    if n < 1:
        raise ValueError(f"verify_decomposition needs n >= 1, got {n}")
    checks: list[Check] = []

    xs, ys = enumerate_all(n, q), enumerate_all(n - 1, q)
    chars = list(characters(n, q))
    pairs = [(chi, y) for chi in chars for y in ys]  # gamma's inputs, character-major
    embedded = [LatticeVector.basis(x).embed(n + 1) for x in xs]
    theta_images = [theta(LatticeVector.basis(x)) for x in xs]
    gamma_images = [gamma(chi, LatticeVector.basis(y)) for chi, y in pairs]
    outside, nt = theta_images + gamma_images, len(theta_images)

    # dimension counts: G(n+1) = G(n) + G(n) + (q^n - 1) G(n-1)
    produced = len(embedded) + len(outside)
    expected = galois_number(n + 1, q)
    recurrence = 2 * galois_number(n, q) + (q**n - 1) * galois_number(n - 1, q)
    ok = produced == expected == recurrence and not any(v.is_zero for v in outside)
    bad = "" if ok else f"produced {produced}, lattice dim {expected}, recurrence {recurrence}"
    checks.append(Check("dimension-count", bad))

    # theta and gamma raise rank by one: each image's support has exactly
    # the dimension of its input plus one (a zero image has none)
    bad = next(
        (
            f"theta image of {x!r} is not homogeneous of rank {x.k + 1}"
            for x, img in zip(xs, theta_images)
            if img.ranks() != {x.k + 1}
        ),
        "",
    )
    checks.append(Check("rankset-trivial-block", bad))
    bad = next(
        (
            f"gamma image of {y!r} under c={chi.c} has wrong rank"
            for (chi, y), img in zip(pairs, gamma_images)
            if img.ranks() != {y.k + 1}
        ),
        "",
    )
    checks.append(Check("rankset-character-blocks", bad))

    # up-operator splitting: U_(n+1) x = U_n x + theta x on basis elements
    up_x = [up_apply(LatticeVector.basis(x)) for x in xs]
    split = [u.embed(n + 1) + img for u, img in zip(up_x, theta_images)]
    hit = _first_true(up_mismatches(embedded, split))
    bad = "" if hit is None else f"splitting fails on {xs[hit[0]]!r}"
    checks.append(Check("up-splitting", bad))

    # inner products: the Gram matrix of the theta and gamma images (which
    # live outside the hyperplane) against the diagonal it should be, and
    # which images have a term on an embedded subspace (last row zero)
    full = gram(outside)
    expect = np.zeros_like(full)
    diagonal = np.arange(len(outside))
    expect[diagonal, diagonal, 0] = [q ** (n - x.k) for x in xs] + [
        q ** (n + y.k) for _, y in pairs
    ]
    miss = (full != expect).any(axis=-1)
    meets = [[any(not sub.matrix[-1].any() for sub in img.support())] for img in outside]
    # the block of each image: -1 for theta, the character's position for gamma
    block = np.concatenate([np.full(nt, -1), np.arange(len(pairs)) // len(ys)])
    same = block[:, None] == block[None, :]
    scaling = np.triu(miss & same)

    hit = _first_true(scaling[:nt, :nt])
    bad = ""
    if hit is not None:
        x, y = xs[hit[0]], xs[hit[1]]
        bad = _scaling_fault("theta", x, y, q ** (n - x.k))
    checks.append(Check("theta-scaling", bad))

    hit = _first_true(scaling[nt:, nt:])
    bad = ""
    if hit is not None:
        (chi, y), (_, z) = pairs[hit[0]], pairs[hit[1]]
        bad = f"c={chi.c}: " + _scaling_fault("gamma", y, z, q ** (n + y.k))
    checks.append(Check("gamma-scaling", bad))

    # intertwining: theta(q U v) = U theta(v), gamma(U v) = U gamma(v)
    hit = _first_true(up_mismatches(theta_images, [theta(u * q) for u in up_x]))
    bad = "" if hit is None else f"theta intertwining fails on {xs[hit[0]]!r}"
    checks.append(Check("theta-intertwining", bad))

    up_y = {y: up_apply(LatticeVector.basis(y)) for y in ys}
    hit = _first_true(up_mismatches(gamma_images, [gamma(chi, up_y[y]) for chi, y in pairs]))
    bad = ""
    if hit is not None:
        chi, y = pairs[hit[0]]
        bad = f"gamma intertwining fails on {y!r} for c={chi.c}"
    checks.append(Check("gamma-intertwining", bad))

    # orthogonality across blocks, in the order of a pairwise scan: each
    # theta or gamma image against the whole embedded lattice, then a theta
    # image against every gamma image and a gamma image against the later
    # gamma images of other characters; column 0 is the embedded lattice and
    # then come the outside images, of which only gamma ones can hit
    hit = _first_true(np.concatenate([meets, np.triu(miss & ~same)], axis=1))
    bad = ""
    if hit is not None:
        i, j = hit
        if i < nt:
            x = xs[i]
            if j == 0:
                bad = f"theta image of {x!r} meets the embedded lattice"
            else:
                chi, y = pairs[j - 1 - nt]
                bad = f"theta {x!r} not orthogonal to gamma {y!r} (c={chi.c})"
        else:
            chi, y = pairs[i - nt]
            if j == 0:
                bad = f"gamma {y!r} (c={chi.c}) meets the embedded lattice"
            else:
                chj, z = pairs[j - 1 - nt]
                bad = f"gamma blocks c={chi.c} and c={chj.c} not orthogonal ({y!r} vs {z!r})"
    checks.append(Check("block-orthogonality", bad))

    # each hyperplane is hit by exactly q-1 characters
    hits = (
        (x, sum(1 for chi in chars if not p_chi(chi, x.hat()).is_zero))
        for x in enumerate_rank(n, n - 1, q)
    )
    bad = next(
        (f"{x!r} survives for {h} characters, expected {q - 1}" for x, h in hits if h != q - 1),
        "",
    )
    checks.append(Check("characters-per-hyperplane", bad))

    return Report(tuple(checks))


def _first_true(mask: np.ndarray) -> tuple[int, ...] | None:
    """Row-major index of the first True entry of a mask."""
    hits = np.argwhere(mask)
    return tuple(int(i) for i in hits[0]) if len(hits) else None


def _scaling_fault(name: str, x: Subspace, y: Subspace, norm: int) -> str:
    """Why the images of x and y under the map ``name`` break its scaling:
    different ranks must be orthogonal, equal ones must have <x, y> = norm
    if x is y and 0 otherwise."""
    if x.k != y.k:
        return f"{name} images of {x!r}, {y!r} not orthogonal"
    return f"<{name} {x!r}, {name} {y!r}> != {norm if x is y else 0}"
