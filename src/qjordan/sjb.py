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

from dataclasses import dataclass

import numpy as np

from .cyclotomic import CycInt
from .gflinalg import Subspace
from .haction import characters, gamma, theta
from .lattice import LatticeVector, gram, inner, up_apply
from .qcombinatorics import galois_number, is_prime, q_binomial, q_int
from .reporting import Check, Report


@dataclass(frozen=True)
class JordanChain:
    start_rank: int
    vectors: tuple[LatticeVector, ...]

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

    def iter_vectors(self):
        for ci, chain in enumerate(self.chains):
            for u, vec in enumerate(chain.vectors):
                yield ci, chain.start_rank + u, vec

    @property
    def vector_count(self) -> int:
        return sum(len(c.vectors) for c in self.chains)

    def chains_starting_at(self, k: int) -> tuple[JordanChain, ...]:
        return tuple(c for c in self.chains if c.start_rank == k)

    def rank_slice(self, m: int) -> list[LatticeVector]:
        """The basis vectors of rank m, in chain order."""
        return [
            c.vector_at_rank(m)
            for c in self.chains
            if c.start_rank <= m <= c.end_rank
        ]


def construct_sjb(n: int, q: int) -> SJB:
    """Build the orthogonal symmetric Jordan basis of V(B_q(n))."""
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    prev = _level_zero(q)
    if n == 0:
        return prev
    cur = _level_one(q)
    for m in range(1, n):
        prev, cur = cur, _next_level(cur, prev)
    return cur


def _level_zero(q: int) -> SJB:
    chain = JordanChain(0, (LatticeVector.basis(Subspace.zero(q, 0)),))
    return SJB(q, 0, (chain,))


def _level_one(q: int) -> SJB:
    chain = JordanChain(
        0,
        (
            LatticeVector.basis(Subspace.zero(q, 1)),
            LatticeVector.basis(Subspace.full(q, 1)),
        ),
    )
    return SJB(q, 1, (chain,))


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
        for parent_idx, parent in enumerate(level_n1.chains):
            k = parent.start_rank
            vectors = tuple(gamma(chi, v) for v in parent.vectors)
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
    """Check every defining property of the basis, exactly.

    ``mode`` 'full' checks the up-operator chain condition on every vector
    and orthogonality of every same-rank pair, read off one exact Gram matrix
    per rank slice; 'spot' checks a deterministic sample of both (all cheap
    structural checks still run on everything).
    """
    if mode not in ("full", "spot"):
        raise ValueError(f"mode must be 'full' or 'spot', got {mode!r}")
    q, n = basis.q, basis.n
    checks: list[Check] = []

    total = basis.vector_count
    expected = galois_number(n, q)
    checks.append(
        Check(
            "total-count",
            total == expected,
            "" if total == expected else f"{total} vectors != Galois number {expected}",
        )
    )

    bad = ""
    for ci, chain in enumerate(basis.chains):
        k = chain.start_rank
        if chain.end_rank != n - k:
            bad = f"chain {ci} (start {k}) ends at {chain.end_rank}, not {n - k}"
            break
        for u, vec in enumerate(chain.vectors):
            rank = k + u
            if vec.is_zero or not vec.is_homogeneous() or vec.rank() != rank:
                bad = f"chain {ci} (start {k}), rank {rank}: not homogeneous of that rank"
                break
            if vec.q != q or vec.n != n:
                bad = f"chain {ci}, rank {rank}: wrong ambient space"
                break
        if bad:
            break
    checks.append(Check("chain-shape", not bad, bad))

    bad = ""
    for k in range((n // 2) + 1):
        got = len(basis.chains_starting_at(k))
        expect = q_binomial(n, k, q) - q_binomial(n, k - 1, q)
        if got != expect:
            bad = f"{got} chains start at rank {k}, expected {expect}"
            break
    checks.append(Check("chain-counts", not bad, bad))

    bad = ""
    for ci, chain in enumerate(basis.chains):
        for u, vec in enumerate(chain.vectors):
            for sub, coeff in vec.items():
                if coeff.as_monomial() is None:
                    bad = (
                        f"chain {ci} (start {chain.start_rank}), rank "
                        f"{chain.start_rank + u}: coefficient {coeff} of {sub!r} "
                        "is not an integer multiple of a root of unity"
                    )
                    break
            if bad:
                break
        if bad:
            break
    checks.append(Check("monomial-coefficients", not bad, bad))

    bad = ""
    for ci, chain in enumerate(basis.chains):
        k = chain.start_rank
        # compared in Z[w]: a tampered coefficient can make a norm irrational
        norms = [inner(v, v) for v in chain.vectors]
        for u in range(k, n - k):
            expect = singular_value_sq(q, n, k, u) * norms[u - k]
            if norms[u + 1 - k] != expect:
                bad = (
                    f"chain {ci} (start {k}): |x_{u + 1}|^2 = {norms[u + 1 - k]}"
                    f" != {expect}"
                )
                break
        if bad:
            break
    checks.append(Check("singular-values", not bad, bad))

    chain_sample = (
        range(len(basis.chains))
        if mode == "full"
        else _spread(len(basis.chains), 24)
    )
    bad = ""
    for ci in chain_sample:
        chain = basis.chains[ci]
        k = chain.start_rank
        for u, vec in enumerate(chain.vectors):
            image = up_apply(vec)
            expect = (
                chain.vectors[u + 1]
                if u + 1 < len(chain.vectors)
                else LatticeVector.zero(q, n)
            )
            if image != expect:
                rank = k + u
                bad = f"chain {ci} (start {k}): U(x_{rank}) != x_{rank + 1}"
                break
        if bad:
            break
    name = "chain-condition" if mode == "full" else "chain-condition (sampled)"
    checks.append(Check(name, not bad, bad))

    vectors = [(ci, rank, vec) for ci, rank, vec in basis.iter_vectors()]
    bad = ""
    if mode == "full":
        first = _first_nonorthogonal_pair(vectors)
        if first is not None:
            (ci, rank, _), (cj, _, _) = vectors[first[0]], vectors[first[1]]
            bad = f"vectors of chains {ci} and {cj} at rank {rank} are not orthogonal"
    else:
        count = len(vectors)
        for t in range(min(2000, count * (count - 1) // 2)):
            i = (t * 7919) % count
            j = (t * 104729 + 1) % count
            if i == j:
                continue
            ci, ri, vi = vectors[i]
            cj, rj, vj = vectors[j]
            if ri == rj and not inner(vi, vj).is_zero:
                bad = f"vectors of chains {ci} and {cj} at rank {ri} are not orthogonal"
                break
    name = "orthogonality" if mode == "full" else "orthogonality (sampled)"
    checks.append(Check(name, not bad, bad))

    return Report(tuple(checks))


def _first_nonorthogonal_pair(vectors) -> tuple[int, int] | None:
    """The lexicographically first index pair i < j of same-rank vectors
    with a nonzero inner product, from one Gram matrix per rank slice.

    ``vectors`` holds (chain, rank, vector) triples; vectors of different
    ranks are never compared (in a sound basis their supports are disjoint).
    """
    by_rank: dict[int, list[int]] = {}
    for idx, (_, rank, _) in enumerate(vectors):
        by_rank.setdefault(rank, []).append(idx)
    firsts = []
    for members in by_rank.values():
        block = [vectors[idx][2] for idx in members]
        hits = np.argwhere(np.triu(gram(block, block).any(axis=-1), k=1))
        if len(hits):
            firsts.append((members[hits[0][0]], members[hits[0][1]]))
    return min(firsts, default=None)


def _spread(total: int, want: int) -> list[int]:
    """Deterministic spread of indices across 0..total-1."""
    if total <= want:
        return list(range(total))
    step = total / want
    return sorted({int(i * step) for i in range(want)})


# -- serialization -------------------------------------------------------------


def sjb_to_json(basis: SJB) -> dict:
    return {
        "q": basis.q,
        "n": basis.n,
        "chains": [
            {
                "start_rank": chain.start_rank,
                "vectors": [v.to_json() for v in chain.vectors],
            }
            for chain in basis.chains
        ],
    }


def sjb_from_json(obj: dict) -> SJB:
    q, n = int(obj["q"]), int(obj["n"])
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    chains = []
    for entry in obj["chains"]:
        vectors = tuple(LatticeVector.from_json(v) for v in entry["vectors"])
        for v in vectors:
            if v.q != q or v.n != n:
                raise ValueError("vector does not match the basis header")
        chains.append(JordanChain(int(entry["start_rank"]), vectors))
    return SJB(q, n, tuple(chains))
