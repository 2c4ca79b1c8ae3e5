"""The translation group on subspaces outside a hyperplane, and its characters.

F_q^n acts on F_q^(n+1) through the unitriangular matrices fixing the
embedded F_q^n pointwise: the vector a sends (b, c) to (b + c*a, c).  The
action permutes the subspaces NOT contained in F_q^n; its orbits are the
fibers of X -> X intersect F_q^n.  Characters are indexed by vectors c with
chi_c(a) = w^(c.a), and the associated (unnormalized) isotypic projections
p(chi) decompose the span of those subspaces.  The maps built here (theta,
the character projections, and the rank-raising gamma) realize the
Goldman-Rota recurrence at the level of vector spaces and drive the Jordan
basis construction in :mod:`qjordan.sjb`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

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
)
from .qcombinatorics import galois_number, q_binomial
from .reporting import Check, Report


@cache
def group_vectors(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """All of F_q^n in lexicographic order; the group underlying the action."""
    return tuple(product(range(q), repeat=n))


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

    def exponent(self, a: tuple[int, ...]) -> int:
        return sum(ci * ai for ci, ai in zip(self.c, a)) % self.q

    def value(self, a: tuple[int, ...]) -> CycInt:
        return CycInt.omega(self.q, self.exponent(a))

    def conj_value(self, a: tuple[int, ...]) -> CycInt:
        return CycInt.omega(self.q, (-self.exponent(a)) % self.q)


def characters(n: int, q: int, include_trivial: bool = False):
    """The characters of F_q^n in lexicographic order of their index vectors."""
    for c in group_vectors(n, q):
        if include_trivial or any(c):
            yield Character(q, c)


def act(a: tuple[int, ...], x: Subspace) -> Subspace:
    """Image of x under the group element indexed by a.

    x must be a subspace of F_q^(n+1) not contained in the embedded F_q^n.
    """
    n = x.n - 1
    if len(a) != n:
        raise ValueError(f"group vector length {len(a)} != {n}")
    _require_outside(x)
    m = x.matrix.astype(np.int64)
    shifted = m.copy()
    shifted[:n, :] = (m[:n, :] + np.outer(np.asarray(a, dtype=np.int64), m[n, :])) % x.q
    return Subspace.from_matrix(x.q, shifted)


def _require_outside(x: Subspace) -> None:
    if x.n < 1 or not np.any(x.matrix[x.n - 1]):
        raise ValueError(f"{x!r} is contained in the fixed hyperplane")


@dataclass(frozen=True)
class OrbitTable:
    """Orbit of one subspace with the full action table.

    orbit        -- the distinct images, sorted canonically
    self_index   -- position of the base subspace in ``orbit``
    group_index  -- group_index[g] = position of (g . base) for the g-th
                    group vector in lexicographic order
    stabilizer   -- indices g with (g . base) = base
    """

    orbit: tuple[Subspace, ...]
    self_index: int
    group_index: tuple[int, ...]
    stabilizer: tuple[int, ...]


@cache
def orbit_table(x: Subspace) -> OrbitTable:
    _require_outside(x)
    n = x.n - 1
    q = x.q
    m = x.matrix.astype(np.int64)
    shifts = all_coordinate_vectors(n, q)  # one row per group vector, lex order
    mats = np.empty((len(shifts), x.n, x.k), dtype=np.int64)
    mats[:, :n, :] = (m[:n, :][None, :, :] + shifts[:, :, None] * m[n, :][None, None, :]) % q
    mats[:, n, :] = m[n, :]
    images = subspaces_from_matrix_batch(q, mats)
    orbit = tuple(sorted(set(images), key=Subspace.sort_key))
    position = {s: i for i, s in enumerate(orbit)}
    group_index = tuple(position[img] for img in images)
    self_index = position[x]
    stabilizer = tuple(g for g, idx in enumerate(group_index) if idx == self_index)
    return OrbitTable(orbit, self_index, group_index, stabilizer)


def h_map(x: Subspace) -> Subspace:
    """x intersect F_q^n, returned in its own ambient F_q^n."""
    _require_outside(x)
    hyper = Subspace.full(x.q, x.n - 1).embed(x.n)
    return x.intersect(hyper).restrict(x.n - 1)


def eq_class(x: Subspace) -> tuple[Subspace, ...]:
    """All subspaces with the same hyperplane intersection as x.

    By the orbit description this is exactly the orbit of x under the group.
    """
    return orbit_table(x).orbit


@cache
def _char_exponents(q: int, c: tuple[int, ...]) -> tuple[int, ...]:
    """c . a mod q for every group vector a, aligned with group_vectors."""
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
    exps = _char_exponents(q, chi.c)
    hist = [[0] * q for _ in table.orbit]
    for g, idx in enumerate(table.group_index):
        hist[idx][-exps[g] % q] += 1
    terms = {}
    for sub, counts in zip(table.orbit, hist):
        coeff = CycInt.from_root_counts(q, counts)
        if not coeff.is_zero:
            terms[sub] = coeff
    return LatticeVector(q, x.n, terms)


def theta(v: LatticeVector) -> LatticeVector:
    """Sum each support subspace's class over the raised ambient space.

    Sends the basis element X of B_q(n) to the sum of the subspaces of
    F_q^(n+1) whose hyperplane intersection is X; raises rank by one and
    intertwines q*U_n with U_(n+1).
    """
    images = ((img, coeff) for sub, coeff in v.items() for img in orbit_table(sub.hat()).orbit)
    return LatticeVector(v.q, v.n + 1, _accumulate(images))


@cache
def _find_hyperplane_cached(q: int, c: tuple[int, ...], n: int) -> Subspace:
    chi = Character(q, c)
    vectors = group_vectors(n, q)
    found = []
    for x in enumerate_rank(n, n - 1, q):
        table = orbit_table(x.hat())
        # stabilizer criterion: the projection survives iff chi is trivial
        # on the stabilizer of x-hat
        if all(chi.exponent(vectors[g]) == 0 for g in table.stabilizer):
            if not p_chi(chi, x.hat()).is_zero:
                found.append(x)
    if len(found) != 1:
        raise RuntimeError(
            f"expected exactly one surviving hyperplane for c={c}, found {len(found)}"
        )
    return found[0]


def find_hyperplane(chi: Character, n: int) -> Subspace:
    """The unique hyperplane of F_q^n whose raised class survives p(chi)."""
    if chi.is_trivial:
        raise ValueError("find_hyperplane requires a nontrivial character")
    if chi.n != n:
        raise ValueError(f"character indexed by F_{chi.q}^{chi.n}, asked for n={n}")
    return _find_hyperplane_cached(chi.q, chi.c, n)


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
    hyper = find_hyperplane(chi, n)
    images = (
        (img, c * coeff)
        for sub, coeff in v.items()
        for img, c in p_chi(chi, _mu_hat(hyper, sub)).items()
    )
    return LatticeVector(v.q, n + 1, _accumulate(images))


@cache
def _fixed_point_counts(n: int, k: int, q: int) -> tuple[int, ...]:
    """counts[g] = number of dim-k subspaces outside the hyperplane fixed by
    the g-th group vector; one orbit-table pass over all of them."""
    counts = [0] * q**n
    for x in enumerate_rank(n + 1, k, q):
        if not np.any(x.matrix[n]):
            continue  # inside the hyperplane: not acted on
        table = orbit_table(x)
        for g, idx in enumerate(table.group_index):
            if idx == table.self_index:
                counts[g] += 1
    return tuple(counts)


def perm_character(n: int, k: int, a: tuple[int, ...], q: int) -> int:
    """Number of dim-k subspaces outside the hyperplane fixed by the group
    element a (a in F_q^n, subspaces in F_q^(n+1)), counted directly."""
    if not 1 <= k <= n + 1:
        raise ValueError(f"k must lie in 1..{n + 1}, got {k}")
    g = group_vectors(n, q).index(tuple(x % q for x in a))
    return _fixed_point_counts(n, k, q)[g]


def character_multiplicity(chi: Character, n: int, k: int) -> int:
    """Multiplicity of chi in the permutation action on dim-k subspaces,
    computed as an exact character inner product of fixed-point counts."""
    q = chi.q
    counts = _fixed_point_counts(n, k, q)
    total = CycInt.zero(q)
    for g, a in enumerate(group_vectors(n, q)):
        total = total + chi.conj_value(a) * counts[g]
    value = total.to_int()
    mult, rem = divmod(value, q**n)
    if rem:
        raise RuntimeError(f"character inner product {value} not divisible by {q**n}")
    return mult


def verify_decomposition(n: int, q: int) -> Report:
    """Check the orthogonal decomposition of V(B_q(n+1)) induced by the
    group action: dimension counts, ranksets, the up-operator splitting,
    both inner-product scalings, intertwining, block orthogonality and the
    q-1 count of surviving characters per hyperplane."""
    if n < 1:
        raise ValueError(f"verify_decomposition needs n >= 1, got {n}")
    checks: list[Check] = []

    embedded = [LatticeVector.basis(x).embed(n + 1) for x in enumerate_all(n, q)]
    theta_images = [(x, theta(LatticeVector.basis(x))) for x in enumerate_all(n, q)]
    chars = list(characters(n, q))
    gamma_images = {
        chi: [(y, gamma(chi, LatticeVector.basis(y))) for y in enumerate_all(n - 1, q)]
        for chi in chars
    }

    # dimension counts: G(n+1) = G(n) + G(n) + (q^n - 1) G(n-1)
    produced = len(embedded) + len(theta_images) + sum(len(v) for v in gamma_images.values())
    expected = galois_number(n + 1, q)
    recurrence = 2 * galois_number(n, q) + (q**n - 1) * galois_number(n - 1, q)
    all_nonzero = all(not img.is_zero for _, img in theta_images) and all(
        not img.is_zero for imgs in gamma_images.values() for _, img in imgs
    )
    ok = produced == expected == recurrence and all_nonzero
    checks.append(
        Check(
            "dimension-count",
            ok,
            "" if ok else f"produced {produced}, lattice dim {expected}, recurrence {recurrence}",
        )
    )

    # ranksets: theta raises rank k -> k+1 for k = 0..n, gamma for k = 0..n-1
    def trivial_block_faults():
        for x, img in theta_images:
            if not img.is_homogeneous() or img.rank() != x.k + 1:
                yield f"theta image of {x!r} is not homogeneous of rank {x.k + 1}"
        ranks = sorted({img.rank() for _, img in theta_images})
        if ranks != list(range(1, n + 2)):
            yield f"rankset of the trivial block is {ranks}"

    bad = next(trivial_block_faults(), "")
    checks.append(Check("rankset-trivial-block", not bad, bad))

    def character_block_faults():
        for chi, imgs in gamma_images.items():
            for y, img in imgs:
                if not img.is_homogeneous() or img.rank() != y.k + 1:
                    yield f"gamma image of {y!r} under c={chi.c} has wrong rank"
            ranks = sorted({img.rank() for _, img in imgs})
            if ranks != list(range(1, n + 1)):
                yield f"rankset of block c={chi.c} is {ranks}"

    bad = next(character_block_faults(), "")
    checks.append(Check("rankset-character-blocks", not bad, bad))

    # up-operator splitting: U_(n+1) x = U_n x + theta x on basis elements
    bad = next(
        (
            f"splitting fails on {x!r}"
            for (x, img), v in zip(theta_images, embedded)
            if up_apply(v) != up_apply(LatticeVector.basis(x)).embed(n + 1) + img
        ),
        "",
    )
    checks.append(Check("up-splitting", not bad, bad))

    # inner-product scalings and block orthogonality, read off the Gram
    # matrix of the theta and gamma images (which live outside the
    # hyperplane) and their Gram matrix against the embedded basis of B_q(n)
    flat_gamma = [
        (chi, y, img) for chi, imgs in gamma_images.items() for y, img in imgs
    ]
    outside = [img for _, img in theta_images] + [img for _, _, img in flat_gamma]
    nt = len(theta_images)
    full = gram(outside, outside)
    nonzero = full.any(axis=-1)
    theta_gram, gamma_gram = full[:nt, :nt], full[nt:, nt:]
    to_embedded = gram(outside, embedded).any(axis=-1)

    bad = ""
    hit = _first_scaling_miss(theta_gram, [q ** (n - x.k) for x, _ in theta_images])
    if hit is not None:
        (x, _), (y, _) = theta_images[hit[0]], theta_images[hit[1]]
        if x.k == y.k:
            expect = q ** (n - x.k) if x is y else 0
            bad = f"<theta {x!r}, theta {y!r}> != {expect}"
        else:
            bad = f"theta images of {x!r}, {y!r} not orthogonal"
    checks.append(Check("theta-scaling", not bad, bad))

    def gamma_scaling_faults():
        lo = 0
        for chi, imgs in gamma_images.items():
            hi = lo + len(imgs)
            block = gamma_gram[lo:hi, lo:hi]
            hit = _first_scaling_miss(block, [q ** (n + y.k) for y, _ in imgs])
            lo = hi
            if hit is not None:
                (y, _), (z, _) = imgs[hit[0]], imgs[hit[1]]
                if y.k == z.k:
                    expect = q ** (n + y.k) if y is z else 0
                    yield f"c={chi.c}: <gamma {y!r}, gamma {z!r}> != {expect}"
                else:
                    yield f"c={chi.c}: gamma images of {y!r}, {z!r} not orthogonal"

    bad = next(gamma_scaling_faults(), "")
    checks.append(Check("gamma-scaling", not bad, bad))

    # intertwining: theta(q U v) = U theta(v), gamma(U v) = U gamma(v)
    bad = next(
        (
            f"theta intertwining fails on {x!r}"
            for x, img in theta_images
            if theta(up_apply(LatticeVector.basis(x)) * q) != up_apply(img)
        ),
        "",
    )
    checks.append(Check("theta-intertwining", not bad, bad))

    bad = next(
        (
            f"gamma intertwining fails on {y!r} for c={chi.c}"
            for chi, imgs in gamma_images.items()
            for y, img in imgs
            if gamma(chi, up_apply(LatticeVector.basis(y))) != up_apply(img)
        ),
        "",
    )
    checks.append(Check("gamma-intertwining", not bad, bad))

    # orthogonality across blocks, in the order of a pairwise scan: each
    # theta image against its own embedded subspace and then every gamma
    # image; each gamma image against the embedded lattice and then the
    # later gamma images of other characters
    bad = ""
    theta_rows = np.concatenate(
        [np.diag(to_embedded[:nt].diagonal()), nonzero[:nt, nt:]], axis=1
    )
    hit = _first_true(theta_rows)
    if hit is not None:
        x, _ = theta_images[hit[0]]
        if hit[1] < nt:
            bad = f"theta image of {x!r} meets the embedded lattice"
        else:
            chi, y, _ = flat_gamma[hit[1] - nt]
            bad = f"theta {x!r} not orthogonal to gamma {y!r} (c={chi.c})"
    if not bad:
        block_of = np.repeat(
            np.arange(len(gamma_images)), [len(imgs) for imgs in gamma_images.values()]
        )
        later_other = np.triu(block_of[:, None] != block_of[None, :], k=1)
        gamma_rows = np.concatenate(
            [to_embedded[nt:], nonzero[nt:, nt:] & later_other], axis=1
        )
        hit = _first_true(gamma_rows)
        if hit is not None:
            chi, y, _ = flat_gamma[hit[0]]
            if hit[1] < nt:
                bad = f"gamma {y!r} (c={chi.c}) meets the embedded lattice"
            else:
                chj, z, _ = flat_gamma[hit[1] - nt]
                bad = (
                    f"gamma blocks c={chi.c} and c={chj.c} not orthogonal "
                    f"({y!r} vs {z!r})"
                )
    checks.append(Check("block-orthogonality", not bad, bad))

    # each hyperplane is hit by exactly q-1 characters
    hits = (
        (x, sum(1 for chi in chars if not p_chi(chi, x.hat()).is_zero))
        for x in enumerate_rank(n, n - 1, q)
    )
    bad = next(
        (f"{x!r} survives for {h} characters, expected {q - 1}" for x, h in hits if h != q - 1),
        "",
    )
    checks.append(Check("characters-per-hyperplane", not bad, bad))

    return Report(tuple(checks))


def _first_true(mask: np.ndarray) -> tuple[int, int] | None:
    """Row-major first True entry of a 2-D mask."""
    hits = np.argwhere(mask)
    return (int(hits[0][0]), int(hits[0][1])) if len(hits) else None


def _first_scaling_miss(block: np.ndarray, diagonal: list[int]) -> tuple[int, int] | None:
    """First pair i <= j, row-major, where the Gram ``block`` differs from the
    diagonal matrix with the integers ``diagonal``."""
    expect = np.zeros_like(block)
    idx = np.arange(len(diagonal))
    expect[idx, idx, 0] = diagonal
    return _first_true(np.triu((block != expect).any(axis=-1)))
