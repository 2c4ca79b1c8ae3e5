"""Inductive construction of an orthogonal symmetric Jordan basis of V(B_q(n)).

A symmetric Jordan chain starting at rank k is a sequence x_k, ..., x_(n-k)
of homogeneous vectors with U(x_u) = x_(u+1) and U(x_(n-k)) = 0.  The basis
for level n+1 is assembled from the bases of levels n and n-1:

  * every nontrivial character c of F_q^n lifts each level-(n-1) chain
    through the rank-raising map gamma(c) into one chain of the c-isotypic
    block (ranks shift up by one);

  * each level-n chain (x_k, ..., x_(n-k)), together with its image under
    theta (write xb_u = theta(x_u)), spans an up-closed block that splits
    into two chains:

        k = n-k:   (x_k, xb_k)
        k < n-k:   y_l = x_l + [l-k]_q * xb_(l-1),        l = k .. n+1-k
                   z_l = -q^n * x_l
                        + q^(l+k-1) * [n-l-k+1]_q * xb_(l-1),
                                                          l = k+1 .. n-k
    with the conventions x_(n+1-k) = 0 and xb_(k-1) = 0.

Chains are kept exactly as the formulas produce them (no normalization), so
every coefficient remains an integer multiple of a q-th root of unity and
consecutive norms satisfy

    |x_(u+1)|^2 = q^k [u+1-k]_q [n-k-u]_q |x_u|^2.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .gflinalg import MAX_AMBIENT_SIZE, Subspace, check_field_order
from .haction import characters, gamma, theta
from .lattice import LatticeVector, _vector_from_json, _vector_json, gram, inner, up_mismatches
from .qcombinatorics import galois_number, json_int, q_binomial, q_int
from .reporting import Check, Report


@dataclass(frozen=True)
class JordanChain:
    start_rank: int
    vectors: tuple[LatticeVector, ...]

    def __post_init__(self):
        if self.start_rank < 0:
            raise ValueError(f"start_rank must be >= 0, got {self.start_rank}")

    @property
    def end_rank(self) -> int:
        return self.start_rank + len(self.vectors) - 1

    def vector_at_rank(self, m: int) -> LatticeVector:
        if not self.start_rank <= m <= self.end_rank:
            raise ValueError(f"chain covers ranks {self.start_rank}..{self.end_rank}, not {m}")
        return self.vectors[m - self.start_rank]


@dataclass(frozen=True)
class SJB:
    q: int
    n: int
    chains: tuple[JordanChain, ...]

    def __post_init__(self):
        for ci, rank, vec in self.iter_vectors():
            if (vec.q, vec.n) != (self.q, self.n):
                raise ValueError(
                    f"chain {ci}, rank {rank}: vector of B_{vec.q}({vec.n}), "
                    f"not of B_{self.q}({self.n})"
                )

    def iter_vectors(self):
        for ci, chain in enumerate(self.chains):
            for u, vec in enumerate(chain.vectors):
                yield ci, chain.start_rank + u, vec

    @property
    def vector_count(self) -> int:
        return sum(len(c.vectors) for c in self.chains)

    def chains_starting_at(self, k: int) -> tuple[JordanChain, ...]:
        return tuple(c for c in self.chains if c.start_rank == k)


@contextmanager
def _collector_paused():
    """Run the body with the cyclic garbage collector paused, then restore
    the caller's setting, also on an exception.  A basis under
    construction, its payload and a parsed basis are trees of fresh
    containers with no cycle, so a collection while they grow walks them
    all and frees none."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def construct_sjb(n: int, q: int) -> SJB:
    """Build the orthogonal symmetric Jordan basis of V(B_q(n))."""
    check_field_order(q)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    # F_q^0 has no nontrivial character, so level 0 also stands in for
    # level -1 when level 1 is built
    with _collector_paused():
        prev = cur = _level_zero(q)
        for _ in range(n):
            prev, cur = cur, _next_level(cur, prev)
    return cur


def _level_zero(q: int) -> SJB:
    chain = JordanChain(0, (LatticeVector.basis(Subspace.zero(q, 0)),))
    return SJB(q, 0, (chain,))


def _next_level(level_n: SJB, level_n1: SJB) -> SJB:
    """Assemble the basis for n+1 from the bases for n and n-1."""
    q, n = level_n.q, level_n.n
    ambient = n + 1

    # sort key: start rank, then block (splice first, then characters in
    # lexicographic order), then parent chain position, then sub-chain
    keyed: list[tuple[tuple, JordanChain]] = []

    for parent_idx, parent in enumerate(level_n.chains):
        k = parent.start_rank
        xs = [v.embed(ambient) for v in parent.vectors]
        bars = [theta(v) for v in parent.vectors]
        if 2 * k == n:
            chain = JordanChain(k, (xs[0], bars[0]))
            keyed.append(((k, 0, parent_idx, 0), chain))
            continue
        zero = LatticeVector.zero(q, ambient)

        def x_at(l):
            return xs[l - k] if l <= n - k else zero

        def bar_at(l):
            return bars[l - k] if l >= k else zero

        ys = tuple(
            x_at(l) + q_int(l - k, q) * bar_at(l - 1) for l in range(k, n + 2 - k)
        )
        zs = tuple(
            -(q**n) * x_at(l) + q ** (l + k - 1) * q_int(n - l - k + 1, q) * bar_at(l - 1)
            for l in range(k + 1, n - k + 1)
        )
        keyed.append(((k, 0, parent_idx, 0), JordanChain(k, ys)))
        keyed.append(((k + 1, 0, parent_idx, 1), JordanChain(k + 1, zs)))

    for char_idx, chi in enumerate(characters(n, q)):
        images: dict = {}  # the p(chi) images of this character, by subspace
        for parent_idx, parent in enumerate(level_n1.chains):
            k = parent.start_rank
            vectors = tuple(gamma(chi, v, images) for v in parent.vectors)
            keyed.append(((k + 1, 1 + char_idx, parent_idx, 0), JordanChain(k + 1, vectors)))

    keyed.sort(key=lambda kv: kv[0])
    return SJB(q, ambient, tuple(chain for _, chain in keyed))


def singular_value_sq(q: int, n: int, k: int, u: int) -> int:
    """Square of the norm ratio |x_(u+1)| / |x_u| along a chain from rank k
    to rank n-k: q^k [u+1-k]_q [n-k-u]_q."""
    if not 0 <= k <= u < n - k:
        raise ValueError(f"need 0 <= k <= u < n-k, got k={k}, u={u}, n={n}")
    return q**k * q_int(u + 1 - k, q) * q_int(n - k - u, q)


def verify_sjb(basis: SJB, mode: str = "full") -> Report:
    """Check every defining property of the basis, exactly, on every vector.

    The chain condition U(x_u) = x_(u+1) is decided for a whole rank slice
    at once (``up_mismatches``), and orthogonality of every same-rank pair
    is read off one exact Gram matrix per rank slice.  Each failure names
    the chain, rank or pair that a scan in chain order meets first.
    ``mode`` is kept for callers that name it; only 'full' exists.
    """
    if mode != "full":
        raise ValueError(f"mode must be 'full', got {mode!r}")
    q, n = basis.q, basis.n
    checks: list[Check] = []

    total = basis.vector_count
    expected = galois_number(n, q)
    bad = "" if total == expected else f"{total} vectors != Galois number {expected}"
    checks.append(Check("total-count", bad))

    def shape_faults():
        for ci, chain in enumerate(basis.chains):
            k = chain.start_rank
            if chain.end_rank != n - k:
                yield f"chain {ci} (start {k}) ends at {chain.end_rank}, not {n - k}"
            for rank, vec in enumerate(chain.vectors, k):
                if vec.ranks() != {rank}:
                    yield f"chain {ci} (start {k}), rank {rank}: not homogeneous of that rank"

    bad = next(shape_faults(), "")
    checks.append(Check("chain-shape", bad))

    counts = (
        (k, len(basis.chains_starting_at(k)), q_binomial(n, k, q) - q_binomial(n, k - 1, q))
        for k in range(n // 2 + 1)
    )
    faults = (f"{got} chains start at rank {k}, expected {e}" for k, got, e in counts if got != e)
    bad = next(faults, "")
    checks.append(Check("chain-counts", bad))

    bad = next(
        (
            f"chain {ci} (start {basis.chains[ci].start_rank}), rank {rank}: coefficient "
            f"{coeff} of {sub!r} is not an integer multiple of a root of unity"
            for ci, rank, vec in basis.iter_vectors()
            for sub, coeff in vec.items()
            if coeff.as_monomial() is None
        ),
        "",
    )
    checks.append(Check("monomial-coefficients", bad))

    def norm_faults():
        for ci, chain in enumerate(basis.chains):
            k = chain.start_rank
            # compared in Z[w]: a tampered coefficient can make a norm irrational
            norms = [inner(v, v) for v in chain.vectors]
            # only the consecutive norms the chain has: a chain that stops
            # short of rank n-k fails chain-shape
            for u in range(k, min(chain.end_rank, n - k)):
                expect = singular_value_sq(q, n, k, u) * norms[u - k]
                if norms[u + 1 - k] != expect:
                    yield f"chain {ci} (start {k}): |x_{u + 1}|^2 = {norms[u + 1 - k]} != {expect}"

    bad = next(norm_faults(), "")
    checks.append(Check("singular-values", bad))

    # chain-major first hits: the least (chain, rank) and (chain, rank, chain)
    # over the rank slices
    chain_hits, pair_hits = [], []
    for rank, (owners, vecs, succs) in _rank_slices(basis).items():
        rows = np.flatnonzero(up_mismatches(vecs, succs))
        if len(rows):
            chain_hits.append((owners[rows[0]], rank))
        pairs = np.argwhere(np.triu(gram(vecs).any(axis=-1), k=1))
        if len(pairs):
            i, j = pairs[0]
            pair_hits.append((owners[i], rank, owners[j]))
    bad = ""
    if chain_hits:
        ci, rank = min(chain_hits)
        bad = f"chain {ci} (start {basis.chains[ci].start_rank}): U(x_{rank}) != x_{rank + 1}"
    checks.append(Check("chain-condition", bad))
    bad = ""
    if pair_hits:
        ci, rank, cj = min(pair_hits)
        bad = f"vectors of chains {ci} and {cj} at rank {rank} are not orthogonal"
    checks.append(Check("orthogonality", bad))
    return Report(tuple(checks))


def _rank_slices(basis: SJB) -> dict[int, tuple[list[int], list, list]]:
    """Rank -> (chain indices, vectors, chain successors) at that position
    of every chain, in chain order; a chain's last successor is zero."""
    zero = LatticeVector.zero(basis.q, basis.n)
    slices: dict[int, tuple[list[int], list, list]] = {}
    for ci, chain in enumerate(basis.chains):
        for u, vec in enumerate(chain.vectors):
            owners, vecs, succs = slices.setdefault(chain.start_rank + u, ([], [], []))
            owners.append(ci)
            vecs.append(vec)
            succs.append(chain.vectors[u + 1] if u + 1 < len(chain.vectors) else zero)
    return slices


# -- serialization -------------------------------------------------------------


def sjb_to_json(basis: SJB) -> dict:
    # one table for the document: each distinct subspace is read once
    written: dict = {}
    with _collector_paused():
        return {
            "q": basis.q,
            "n": basis.n,
            "chains": [
                {
                    "start_rank": chain.start_rank,
                    "vectors": [_vector_json(v, written) for v in chain.vectors],
                }
                for chain in basis.chains
            ],
        }


def sjb_from_json(obj) -> SJB:
    """Parse a basis document; a malformed one raises ValueError."""
    with _collector_paused():
        try:
            q, n = json_int(obj["q"], "q"), json_int(obj["n"], "n")
            check_field_order(q)
            # one table for the document, whose vectors all have this q
            parsed: dict = {}
            chains = []
            for entry in obj["chains"]:
                vectors = []
                for v in entry["vectors"]:
                    # checked before the terms are parsed with the vector's own q
                    if json_int(v["q"], "vector q") != q or json_int(v["n"], "vector n") != n:
                        raise ValueError("vector does not match the basis header")
                    vectors.append(_vector_from_json(v, parsed))
                chains.append(
                    JordanChain(json_int(entry["start_rank"], "start_rank"), tuple(vectors))
                )
            if n < 0:
                raise ValueError(f"n must be >= 0, got {n}")
            # q >= 2, so an n of the cap's bit length is past it: no huge power
            if n >= MAX_AMBIENT_SIZE.bit_length() or q**n > MAX_AMBIENT_SIZE:
                raise ValueError(f"q^n must be at most {MAX_AMBIENT_SIZE}, got {q}^{n}")
        except KeyError as exc:
            raise ValueError(f"missing key {exc}") from exc
        except (TypeError, AttributeError, IndexError, OverflowError) as exc:
            raise ValueError(f"malformed basis document: {exc}") from exc
        return SJB(q, n, tuple(chains))
