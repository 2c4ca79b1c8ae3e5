"""The translation group on subspaces outside a hyperplane, and its characters.

F_q^n acts on F_q^(n+1) through the unitriangular matrices fixing the
embedded F_q^n pointwise: the vector a sends (b, c) to (b + c*a, c).  The
action permutes the subspaces NOT contained in F_q^n; its orbits are the
fibers of X -> X intersect F_q^n, and the stabilizer of X is S = X intersect
F_q^n.  An orbit table is built on S: one group vector per coset of S, with
the image it reaches, and a basis of S.  Characters are indexed by vectors c
with chi_c(a) = w^(c.a), in the lexicographic order of the rows of
``all_coordinate_vectors(n, q)``, and the associated (unnormalized)
isotypic projections p(chi) decompose the span of those subspaces; each is
read in closed form off an orbit table.  The maps built here (theta,
the character projections, and the rank-raising gamma) realize the
Goldman-Rota recurrence at the level of vector spaces and drive the Jordan
basis construction in :mod:`qjordan.sjb`.  ``verify_decomposition``
certifies the split they give, taking inner products (``gram_pairs``) only
between images that share a subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .cyclotomic import CycInt
from .gflinalg import Subspace, inv_table, mu_apply, subspaces_from_matrix_batch
from .lattice import (
    LatticeVector,
    _accumulate,
    all_coordinate_vectors,
    enumerate_all,
    enumerate_rank,
    gram_pairs,
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
    """Orbit of one subspace X outside the hyperplane, built on its stabilizer.

    orbit       -- the distinct images a . X, sorted canonically
    shifts      -- shifts[i] is a group vector that sends X to orbit[i]: a
                   (len(orbit), n) int8 array, one row per coset of S
    stabilizer  -- S = X intersect F_q^n, the group vectors fixing X, as a
                   subspace of F_q^n; its matrix is a basis of S
    """

    orbit: tuple[Subspace, ...]
    shifts: np.ndarray
    stabilizer: Subspace


@cache
def orbit_table(x: Subspace) -> OrbitTable:
    """The orbit of x, a subspace outside the hyperplane, with one group
    vector per image and a basis of the stabilizer.

    The vector a fixes x exactly when (a, 0) lies in x, so the stabilizer
    is S = x intersect F_q^n and the orbit has one image per coset of S.
    Let column j be the last column of x's normal form with a term on the
    new coordinate.  Subtracting multiples of it from the columns before
    it clears that coordinate and leaves the other columns in normal form:
    a basis of S with the pivot rows of x but column j's.  Each coset of S
    has exactly one vector that is zero on those pivot rows, so only the
    q^(n - dim S) vectors supported off them are applied and reduced.
    """
    n, q = x.n - 1, x.q
    if n < 0 or not x.matrix[n].any():
        raise ValueError(f"{x!r} is contained in the fixed hyperplane")
    m = x.matrix.astype(np.int64)
    j = int(np.flatnonzero(m[n])[-1])
    factors = m[n] * inv_table(q)[m[n, j]] % q
    basis = np.delete((m - m[:, j : j + 1] * factors) % q, j, axis=1)
    stabilizer = Subspace._make(q, n, basis[:n])
    pivots = set(stabilizer.pivot_rows())
    free = [r for r in range(n) if r not in pivots]
    shifts = np.zeros((q ** len(free), n), dtype=np.int64)
    shifts[:, free] = all_coordinate_vectors(len(free), q)
    mats = np.empty((len(shifts), x.n, x.k), dtype=np.int64)
    mats[:, :n, :] = (m[:n, :][None, :, :] + shifts[:, :, None] * m[n, :][None, None, :]) % q
    mats[:, n, :] = m[n, :]
    images = subspaces_from_matrix_batch(q, mats)
    order = sorted(range(len(images)), key=lambda i: images[i].sort_key())
    return OrbitTable(
        tuple(images[i] for i in order), shifts[order].astype(np.int8), stabilizer
    )


def p_chi(chi: Character, x: Subspace) -> LatticeVector:
    """The projection sum over the group: sum_a conj(chi(a)) * (a . x).

    Kept unnormalized so every coefficient stays in Z[w].  Summed over the
    coset a + S of the stabilizer S, the terms on a . x give conj(chi(a))
    times the sum of conj(chi) over S, which is |S| when chi is trivial on
    S and 0 otherwise.  So the result is zero when chi is nontrivial on S,
    and otherwise puts |S| w^(-c.a) on each orbit image a . x, a single
    root count per coefficient.
    """
    if x.n != chi.n + 1:
        raise ValueError(f"x lives in ambient {x.n}, character wants {chi.n + 1}")
    table = orbit_table(x)
    q = x.q
    c = np.asarray(chi.c, dtype=np.int64)
    if (c @ table.stabilizer.matrix % q).any():
        return LatticeVector._of(q, x.n, {})
    size = q**table.stabilizer.k
    roots: dict[int, CycInt] = {}  # exponent c.a -> |S| w^(-c.a)
    terms = {}
    for sub, e in zip(table.orbit, (table.shifts @ c % q).tolist()):
        coeff = roots.get(e)
        if coeff is None:
            counts = [0] * q
            counts[-e % q] = size
            coeff = roots[e] = CycInt.from_root_counts(q, counts)
        terms[sub] = coeff
    return LatticeVector._of(q, x.n, terms)


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


def gamma(chi: Character, v: LatticeVector, images: dict | None = None) -> LatticeVector:
    """Rank-raising map from B_q(n-1) vectors into the chi-isotypic block.

    Composition of the hyperplane reparametrization with Y -> p(chi)(Y-hat);
    commutes with the up operators and scales inner products of rank-k
    vectors by q^(n+k).  ``images`` is a table from each subspace Y to its
    image, filled as Y is met: pass one dict for all the vectors mapped
    under chi, and p_chi runs once per subspace.
    """
    if chi.is_trivial:
        raise ValueError("gamma requires a nontrivial character")
    n = chi.n
    if v.n != n - 1:
        raise ValueError(f"gamma input must live in ambient {n - 1}, got {v.n}")
    hyper = find_hyperplane(chi)
    if images is None:
        images = {}
    terms = []
    for sub, coeff in v.items():
        image = images.get(sub)
        if image is None:
            image = images[sub] = p_chi(chi, _mu_hat(hyper, sub))
        terms.extend((img, c * coeff) for img, c in image.items())
    return LatticeVector._of(v.q, n + 1, _accumulate(terms))


def verify_decomposition(n: int, q: int) -> Report:
    """Check the orthogonal decomposition of V(B_q(n+1)) induced by the
    group action: dimension counts, ranks, the up-operator splitting,
    both inner-product scalings, intertwining, block orthogonality and the
    q-1 count of surviving characters per hyperplane.

    Each U identity is decided for all its vectors by one ``up_mismatches``
    call.  Every inner-product identity is read off the images' supports
    and one ``gram_pairs`` list, the exact inner products of the images
    that share a subspace: an image meets only the images on its own
    orbit, and every pair the list leaves out is 0.  Each failure names the
    input that a row-major scan over all pairs meets first.
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

    # inner products: the pairs of theta and gamma images (which live
    # outside the hyperplane) that share a subspace, against the diagonal
    # they should give.  A pair not listed is 0, as an off-diagonal pair
    # should be, and a zero image lists no diagonal, so that counts as a miss
    listed, values = gram_pairs(outside)
    left, right = listed.T
    diagonal = left == right
    norms = [q ** (n - x.k) for x in xs] + [q ** (n + y.k) for _, y in pairs]
    expect = np.zeros_like(values)
    expect[diagonal, 0] = [norms[i] for i in left[diagonal].tolist()]
    miss = (values != expect).any(axis=1)
    zero = [(i, i) for i, img in enumerate(outside) if img.is_zero]
    # the block of each image: -1 for theta, the character's position for gamma
    block = np.concatenate([np.full(nt, -1), np.arange(len(pairs)) // len(ys)])
    same = block[left] == block[right]
    theta_rows = left < nt

    hit = _first_pair(listed, miss & same & theta_rows, [z for z in zero if z[0] < nt])
    bad = ""
    if hit is not None:
        x, y = xs[hit[0]], xs[hit[1]]
        bad = _scaling_fault("theta", x, y, q ** (n - x.k))
    checks.append(Check("theta-scaling", bad))

    hit = _first_pair(listed, miss & same & ~theta_rows, [z for z in zero if z[0] >= nt])
    bad = ""
    if hit is not None:
        (chi, y), (_, z) = pairs[hit[0] - nt], pairs[hit[1] - nt]
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
    # gamma images of other characters.  An image meets the embedded
    # lattice when it has a term on an embedded subspace (last row zero)
    subs = {sub for img in outside for sub in img.support()}
    lying = {sub for sub in subs if not sub.matrix[-1].any()}
    meets = next((i for i, img in enumerate(outside) if not lying.isdisjoint(img.support())), None)
    hit = _first_pair(listed, miss & ~same)
    bad = ""
    if meets is not None and (hit is None or meets <= hit[0]):
        if meets < nt:
            bad = f"theta image of {xs[meets]!r} meets the embedded lattice"
        else:
            chi, y = pairs[meets - nt]
            bad = f"gamma {y!r} (c={chi.c}) meets the embedded lattice"
    elif hit is not None:
        # the later image of a pair across blocks is a gamma one
        i, j = hit
        chj, z = pairs[j - nt]
        if i < nt:
            bad = f"theta {xs[i]!r} not orthogonal to gamma {z!r} (c={chj.c})"
        else:
            chi, y = pairs[i - nt]
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


def _first_pair(listed: np.ndarray, mask: np.ndarray, extra=()) -> tuple[int, int] | None:
    """The least (i, j) among the row-major pairs ``listed`` where ``mask``
    holds and the pairs in ``extra``; None if there is none."""
    hits = [tuple(int(i) for i in listed[k]) for k in np.flatnonzero(mask)[:1]]
    return min([*hits, *extra], default=None)


def _scaling_fault(name: str, x: Subspace, y: Subspace, norm: int) -> str:
    """Why the images of x and y under the map ``name`` break its scaling:
    different ranks must be orthogonal, equal ones must have <x, y> = norm
    if x is y and 0 otherwise."""
    if x.k != y.k:
        return f"{name} images of {x!r}, {y!r} not orthogonal"
    return f"<{name} {x!r}, {name} {y!r}> != {norm if x is y else 0}"
