"""Linear algebra over F_q (q prime) and canonical subspace representatives.

A subspace of F_q^n is represented by the unique n x k matrix in Schubert
normal form (column reduced echelon form) whose column space it is:

  (i)   every column is nonzero,
  (ii)  the first nonzero entry of column j is a 1, in row r_j,
  (iii) r_1 < r_2 < ... < r_k and the submatrix on those rows is the identity.

Canonical matrices make subspace equality a byte comparison, so all maps and
sets elsewhere in the package key directly on ``Subspace`` values.  Distinct
``Subspace`` objects are interned: one object per (q, ambient, matrix).
"""

from __future__ import annotations

from functools import cache
from itertools import chain

import numpy as np

from . import _kernels
from .qcombinatorics import is_prime, json_int


# Subspace matrices are stored as int8, so entries must lie in 0..127: a
# larger field would wrap its entries and merge distinct subspaces.
MAX_FIELD_ORDER = 128
# A basis file's header is capped at |F_q^n| = q^n: verifying it enumerates
# the q^(n-k) coordinate vectors off each support subspace.  q^n <= 2^14
# also bounds n by 14, far inside Python's int-to-str digit limit and the
# recursion depth of q_binomial.
MAX_AMBIENT_SIZE = 2**14


def check_field_order(q: int) -> None:
    """Raise ValueError unless q is a prime below ``MAX_FIELD_ORDER``, the
    largest field whose subspaces the int8 matrices of ``Subspace`` keep
    apart."""
    if q >= MAX_FIELD_ORDER:
        raise ValueError(f"q must be below {MAX_FIELD_ORDER}, got {q}")
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")


@cache
def inv_table(q: int) -> np.ndarray:
    """The inverse table of F_q, inv[x] * x = 1 with inv[0] = 0; the one
    check of the field order that every ``Subspace`` path makes."""
    check_field_order(q)
    return np.array([0] + [pow(x, -1, q) for x in range(1, q)], dtype=np.int64)


def fq_matmul(a, b, q: int) -> np.ndarray:
    """Exact matrix product mod q (int64 accumulation is safe at our sizes)."""
    prod = np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)
    return np.mod(prod, q)


def subspaces_from_matrix_batch(q: int, mats: np.ndarray) -> list["Subspace"]:
    """Canonicalize the column spaces of a whole (B, n, c) batch with one
    kernel dispatch; the one canonicalizer (``Subspace.from_matrix`` is a
    batch of one).

    Schubert normal form is the transposed RREF of the transpose: RREF
    pivots become the topmost nonzero entries of the columns, increasing
    left to right, and zero columns drop out.  Orbit tables and cover
    enumeration reduce thousands of tiny matrices at once this way.
    """
    inv = inv_table(q)
    nb, n, _ = mats.shape
    t = np.ascontiguousarray(np.transpose(mats, (0, 2, 1)) % q)
    ranks = _kernels.rref_batch(t, q, inv)
    return [Subspace._make(q, n, t[b, : ranks[b]].T) for b in range(nb)]


def free_positions(n: int, pivots) -> list[tuple[int, int]]:
    """The free entries (i, j) of the Schubert cell with the given pivot
    rows, column-major: below the pivot of column j and off every other
    pivot row."""
    pivot_set = set(pivots)
    return [(i, j) for j, r in enumerate(pivots) for i in range(r + 1, n) if i not in pivot_set]


_INT = frozenset((int,))


class Subspace:
    """A subspace of F_q^n, canonically represented and interned."""

    __slots__ = ("q", "n", "k", "_mat", "_key", "_hash", "_skey")

    _interned: dict[tuple, "Subspace"] = {}

    def __init__(self, *_args, **_kwargs):
        raise TypeError("use Subspace.from_matrix / zero / full / span")

    @classmethod
    def _make(cls, q: int, n: int, snf: np.ndarray) -> Subspace:
        mat8 = np.ascontiguousarray(snf, dtype=np.int8)
        key = (q, n, mat8.shape[1], mat8.tobytes())
        hit = cls._interned.get(key)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        mat8.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", mat8.shape[1])
        object.__setattr__(self, "_mat", mat8)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_skey", None)
        cls._interned[key] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_matrix(cls, q: int, mat) -> Subspace:
        """Canonicalize the column space of an arbitrary matrix over F_q,
        as a batch of one.  Entries must be Python or numpy ints: a float,
        str or bool entry raises TypeError instead of being cast."""
        m = np.asarray(mat)
        # an empty matrix has no entry to refuse ([[], []] reads as float);
        # ints past int64 read as object and overflow below, as before
        if m.dtype.kind not in "iu":
            for x in m.flat:
                if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                    raise TypeError(f"matrix entries must be integers, got {type(x).__name__}")
        m = m.astype(np.int64, copy=False)
        if m.ndim != 2:
            raise ValueError(f"matrix must be 2-dimensional, got shape {m.shape}")
        return subspaces_from_matrix_batch(q, m[None])[0]

    @classmethod
    def zero(cls, q: int, n: int) -> Subspace:
        inv_table(q)
        return cls._make(q, n, np.zeros((n, 0), dtype=np.int64))

    @classmethod
    def full(cls, q: int, n: int) -> Subspace:
        inv_table(q)
        return cls._make(q, n, np.eye(n, dtype=np.int64))

    @classmethod
    def span(cls, q: int, n: int, vectors) -> Subspace:
        """Span of a sequence of length-n coordinate vectors."""
        vecs = np.asarray(list(vectors), dtype=np.int64)
        if vecs.size == 0:
            return cls.zero(q, n)
        return cls.from_matrix(q, vecs.T)

    # -- basic structure -----------------------------------------------------

    @property
    def matrix(self) -> np.ndarray:
        """The canonical n x k matrix (read-only)."""
        return self._mat

    def pivot_rows(self) -> tuple[int, ...]:
        return self.sort_key()[1]

    def sort_key(self) -> tuple:
        """Total order on subspaces of one ambient space: dimension, then
        pivot-row set lexicographically, then free entries column-major.

        Memoized per interned object; sorting leans on it heavily.
        """
        key = self._skey
        if key is None:
            rows = self._mat.tolist()
            pivots = []
            for j in range(self.k):
                for i in range(self.n):
                    if rows[i][j]:
                        pivots.append(i)
                        break
            free = tuple(rows[i][j] for i, j in free_positions(self.n, pivots))
            key = (self.k, tuple(pivots), free)
            object.__setattr__(self, "_skey", key)
        return key

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Subspace) and self._key == other._key
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Subspace(q={self.q}, n={self.n}, cols={self._mat.T.tolist()})"

    # -- ambient coercions -----------------------------------------------------

    def hat(self) -> Subspace:
        """Span of self and the new last coordinate vector, in F_q^(n+1)."""
        m = np.zeros((self.n + 1, self.k + 1), dtype=np.int64)
        m[: self.n, : self.k] = self._mat
        m[self.n, self.k] = 1
        # appending a zero row and the column e_{n+1} preserves normal form
        return Subspace._make(self.q, self.n + 1, m)

    def embed(self, ambient: int) -> Subspace:
        """The same subspace inside F_q^ambient (appended coordinates zero)."""
        if ambient < self.n:
            raise ValueError(f"cannot embed ambient {self.n} into {ambient}")
        if ambient == self.n:
            return self
        m = np.zeros((ambient, self.k), dtype=np.int64)
        m[: self.n] = self._mat
        return Subspace._make(self.q, ambient, m)

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        # one numpy call reads the entries as Python ints; every payload gets
        # fresh column lists, since callers may edit them
        rows = self._mat.tolist()
        return {
            "n": self.n,
            "k": self.k,
            "cols": [[row[j] for row in rows] for j in range(self.k)],
        }

    @classmethod
    def from_json(cls, q: int, obj: dict) -> Subspace:
        """Read stored columns.  Columns already in Schubert normal form are
        recognised by an intern-table lookup; any others are reduced, so
        imported data is never trusted to be normal form."""
        n, k = json_int(obj["n"], "subspace n"), json_int(obj["k"], "subspace k")
        cols = obj["cols"]
        if len(cols) != k:
            raise ValueError(f"expected {k} columns, got {len(cols)}")
        for j, col in enumerate(cols):
            if len(col) != n:
                raise ValueError(f"column {j} has length {len(col)}, ambient is {n}")
            # exact types, as json_int reads them: no float, str or bool
            if not _INT.issuperset(map(type, col)):
                raise ValueError(f"column {j} must hold integers, got {col!r}")
        # the entries row-major, the order of the intern key's bytes (a list:
        # a tuple built from an iterator would be resized and then parked in
        # the free list of its final size, one per term)
        entries = list(chain.from_iterable(zip(*cols)))
        residues = not entries or (min(entries) >= 0 and max(entries) < q)
        if residues and q < MAX_FIELD_ORDER:
            # only _make fills the table, and only with normal forms over
            # fields below the cap (whose residues fit the key's bytes), so a
            # hit on the stored entries proves the columns canonical
            hit = cls._interned.get((q, n, k, bytes(entries)))
            if hit is not None:
                return hit
        m = np.zeros((n, k), dtype=np.int64)
        for j, col in enumerate(cols):
            m[:, j] = col
        sub = cls.from_matrix(q, m)
        if sub.k != k:
            raise ValueError(f"the {k} columns span a subspace of dimension {sub.k}")
        # from_matrix reads entries mod q; a stored entry must be a residue
        if not residues:
            raise ValueError(f"column entries must lie in 0..{q - 1}, got {cols!r}")
        return sub


def mu_apply(x: Subspace, y: Subspace) -> Subspace:
    """Image of y under the map sending e_j to column j of x's matrix.

    For x of dimension n-1 in F_q^n this is the canonical order isomorphism
    from subspaces of F_q^(n-1) onto subspaces of x.
    """
    if x.k != x.n - 1:
        raise ValueError(f"mu_apply: x must be a hyperplane, got dim {x.k} in ambient {x.n}")
    if y.n != x.n - 1:
        raise ValueError(f"mu_apply: y must live in ambient {x.n - 1}, got {y.n}")
    if x.q != y.q:
        raise ValueError(f"mixed fields: q={x.q} vs q={y.q}")
    # The product is already in Schubert normal form, so it is not reduced
    # again.  Let x have pivot rows r_0 < ... < r_(n-2) and y pivot rows
    # s_0 < s_1 < ...  Column t of x y is column s_t of x plus multiples of
    # the columns j > s_t of x, which are zero down to row r_j > r_(s_t): it
    # is zero above r_(s_t) and 1 there.  On pivot row r_i of x it reads
    # y[i, t], so on the rows r_(s_u) it is the identity, as y is on s_u.
    return Subspace._make(x.q, x.n, fq_matmul(x.matrix, y.matrix, x.q))
