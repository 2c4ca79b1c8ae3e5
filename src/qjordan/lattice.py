"""The subspace lattice B_q(n): enumeration, the up operator, inner products.

Vectors of the lattice space are sparse formal sums of subspaces with
cyclotomic-integer coefficients.  The inner product makes the subspaces an
orthonormal basis and is conjugate-linear in its second argument.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, combinations
from typing import Hashable, Iterable, Sequence

import numpy as np

from .cyclotomic import CycInt
from .gflinalg import _INT, Subspace, free_positions, inv_table, subspaces_from_matrix_batch
from .qcombinatorics import json_int, q_binomial


@cache
def enumerate_rank(n: int, k: int, q: int) -> tuple[Subspace, ...]:
    """All k-dimensional subspaces of F_q^n, each exactly once.

    Order: pivot-row sets lexicographically, then free entries read
    column-major as ascending base-q digit strings.  Out-of-range k gives
    the empty sequence.
    """
    inv_table(q)
    if k < 0 or k > n:
        return ()
    out = []
    for pivots in combinations(range(n), k):
        mat = np.zeros((n, k), dtype=np.int64)
        mat[pivots, range(k)] = 1
        rows, cols = np.array(free_positions(n, pivots), dtype=np.int64).reshape(-1, 2).T
        # _make stores an int8 copy, so one matrix is refilled for the whole cell
        for entries in all_coordinate_vectors(len(rows), q):
            mat[rows, cols] = entries
            out.append(Subspace._make(q, n, mat))
    result = tuple(out)
    assert len(result) == q_binomial(n, k, q)
    return result


def enumerate_all(n: int, q: int) -> tuple[Subspace, ...]:
    """All subspaces of F_q^n, by increasing dimension."""
    out: list[Subspace] = []
    for k in range(n + 1):
        out.extend(enumerate_rank(n, k, q))
    return tuple(out)


def all_coordinate_vectors(n: int, q: int) -> np.ndarray:
    """All q^n coordinate vectors as an (q^n, n) int64 array, lexicographic."""
    if n == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grids = np.indices((q,) * n).reshape(n, -1).T
    return np.ascontiguousarray(grids.astype(np.int64))


@cache
def covers_of(x: Subspace) -> tuple[Subspace, ...]:
    """The subspaces covering x in B_q(n), i.e. x plus one new line.

    Every cover is x plus one point of the projective space on x's non-pivot
    rows: a vector that is zero on x's pivot rows and whose first nonzero
    entry is 1.  Each of the [n-k]_q covers comes from exactly one such
    vector, so the batch is canonicalized at once with nothing to
    deduplicate; results are cached per subspace since the up operator
    revisits them constantly.
    """
    q, n, k = x.q, x.n, x.k
    if k == n:
        return ()
    pivots = set(x.pivot_rows())
    free_rows = [r for r in range(n) if r not in pivots]
    points = _projective_points(n - k, q)
    mats = np.zeros((len(points), n, k + 1), dtype=np.int64)
    mats[:, :, :k] = x.matrix
    mats[:, free_rows, k] = points
    result = tuple(sorted(subspaces_from_matrix_batch(q, mats), key=Subspace.sort_key))
    assert len(set(result)) == len(result) == q_binomial(n - k, 1, q)
    return result


@cache
def _projective_points(m: int, q: int) -> np.ndarray:
    """One vector per point of PG(m-1, q): the nonzero vectors of F_q^m
    whose first nonzero entry is 1, as an ([m]_q, m) int64 array."""
    vecs = all_coordinate_vectors(m, q)
    nonzero = vecs != 0
    lead = vecs[np.arange(len(vecs)), nonzero.argmax(axis=1)]
    return vecs[nonzero.any(axis=1) & (lead == 1)]


class LatticeVector:
    """Sparse formal sum of same-ambient subspaces with CycInt coefficients."""

    __slots__ = ("q", "n", "_terms")

    def __init__(self, q: int, n: int, terms: dict[Subspace, CycInt] | None = None):
        _set_q(self, q)
        _set_n(self, n)
        clean: dict[Subspace, CycInt] = {}
        for sub, coeff in (terms or {}).items():
            coeff = self._as_coeff(coeff)
            if sub.q != q or sub.n != n:
                raise ValueError(f"term {sub!r} does not live in B_{q}({n})")
            if not coeff.is_zero:
                clean[sub] = coeff
        _set_terms(self, clean)

    def __setattr__(self, name, value):
        raise AttributeError("LatticeVector is immutable")

    @classmethod
    def _of(cls, q: int, n: int, terms: dict[Subspace, CycInt]) -> LatticeVector:
        """Internal constructor for vectors the package builds from parts it
        has already checked (same-ambient subspaces, CycInt coefficients of
        prime q): copies the nonzero coefficients and checks nothing else."""
        v = _new(cls)
        _set_q(v, q)
        _set_n(v, n)
        _set_terms(v, {sub: c for sub, c in terms.items() if any(c.coeffs)})
        return v

    def _as_coeff(self, value) -> CycInt:
        if isinstance(value, CycInt):
            if value.p != self.q:
                raise ValueError(f"coefficient prime {value.p} != lattice prime {self.q}")
            return value
        if isinstance(value, int):
            return CycInt.from_int(self.q, value)
        raise TypeError(f"coefficient must be CycInt or int, got {type(value).__name__}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, q: int, n: int) -> LatticeVector:
        return cls(q, n, {})

    @classmethod
    def basis(cls, sub: Subspace) -> LatticeVector:
        return cls(sub.q, sub.n, {sub: CycInt.one(sub.q)})

    # -- linear structure -----------------------------------------------------

    def _check_compatible(self, other: LatticeVector) -> None:
        if self.q != other.q or self.n != other.n:
            raise ValueError(
                f"mixed spaces: B_{self.q}({self.n}) vs B_{other.q}({other.n})"
            )

    def __add__(self, other: LatticeVector) -> LatticeVector:
        self._check_compatible(other)
        terms = dict(self._terms)
        for sub, coeff in other._terms.items():
            cur = terms.get(sub)
            terms[sub] = coeff if cur is None else cur + coeff
        return LatticeVector._of(self.q, self.n, terms)

    def __sub__(self, other: LatticeVector) -> LatticeVector:
        return self + (-other)

    def __neg__(self) -> LatticeVector:
        return LatticeVector._of(self.q, self.n, {s: -c for s, c in self._terms.items()})

    def __mul__(self, scalar) -> LatticeVector:
        # an int scales the coefficients slot by slot, with no ring product
        coeff = scalar if type(scalar) is int else self._as_coeff(scalar)
        if not coeff:
            return LatticeVector.zero(self.q, self.n)
        return LatticeVector._of(self.q, self.n, {s: c * coeff for s, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LatticeVector)
            and self.q == other.q
            and self.n == other.n
            and self._terms == other._terms
        )

    def __hash__(self):
        raise TypeError("LatticeVector is not hashable")

    # -- inspection ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def coeff(self, sub: Subspace) -> CycInt:
        return self._terms.get(sub, CycInt.zero(self.q))

    def support(self) -> tuple[Subspace, ...]:
        return tuple(self._terms)

    def items(self):
        return self._terms.items()

    def sorted_items(self) -> list[tuple[Subspace, CycInt]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def ranks(self) -> set[int]:
        """The dimensions of the subspaces in the support: {r} exactly when
        the vector is nonzero and homogeneous of rank r."""
        return {s.k for s in self._terms}

    def embed(self, ambient: int) -> LatticeVector:
        if ambient == self.n:
            return self
        return LatticeVector._of(
            self.q, ambient, {s.embed(ambient): c for s, c in self._terms.items()}
        )

    def __repr__(self) -> str:
        parts = [f"({c})*{s!r}" for s, c in list(self._terms.items())[:4]]
        more = "" if len(self._terms) <= 4 else f" ... ({len(self._terms)} terms)"
        return f"LatticeVector(q={self.q}, n={self.n}, {' + '.join(parts) or '0'}{more})"

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return _vector_json(self, {})

    @classmethod
    def from_json(cls, obj: dict) -> LatticeVector:
        return _vector_from_json(obj, {})


# the slots' own descriptors: the constructors fill a new vector through
# them, past the __setattr__ that keeps vectors immutable
_new = object.__new__
_set_q = LatticeVector.q.__set__
_set_n = LatticeVector.n.__set__
_set_terms = LatticeVector._terms.__set__


_LIST = frozenset((list,))


def _vector_json(v: LatticeVector, written: dict) -> dict:
    """The payload of v, terms in ``Subspace.sort_key`` order.

    ``written`` is one document's table from each subspace to its
    ``Subspace.to_json()``, filled once per distinct subspace.  Every term
    still gets fresh dicts and column lists, since callers may edit them.
    """
    terms = v._terms
    out = []
    for s in sorted(terms, key=Subspace.sort_key):
        sub = written.get(s)
        if sub is None:
            sub = written[s] = s.to_json()
        out.append(
            {"subspace": {**sub, "cols": list(map(list, sub["cols"]))}, "coeff": terms[s].to_json()}
        )
    return {"n": v.n, "q": v.q, "terms": out}


def _vector_from_json(obj, parsed: dict) -> LatticeVector:
    """Parse one vector payload; a malformed one raises ValueError.

    ``parsed`` is one document's table from raw fields to the values parsed
    from them, for one q: (n, k, entries) to a ``Subspace`` and (m, j) to a
    monomial ``CycInt``.  A field is looked up only once it passes every
    check the full parsers make on its keys, lengths and exact int types
    (``True == 1``, so a bool would otherwise hit an int's entry), and a
    value is stored only once they have accepted it.  Any other field goes
    through ``Subspace.from_json`` or ``CycInt.from_json``, so every error
    reads the same.
    """
    q, n = json_int(obj["q"], "vector q"), json_int(obj["n"], "vector n")
    terms: dict[Subspace, CycInt] = {}
    for item in obj["terms"]:
        raw = item["subspace"]
        key = None
        if type(raw) is dict:
            sn, k, cols = raw.get("n"), raw.get("k"), raw.get("cols")
            if (
                type(sn) is int
                and type(k) is int
                and type(cols) is list
                and len(cols) == k
                and _LIST.issuperset(map(type, cols))
                and all(len(col) == sn for col in cols)
            ):
                entries = tuple(chain.from_iterable(cols))
                if _INT.issuperset(map(type, entries)):
                    key = (sn, k, entries)
        sub = parsed.get(key)
        if sub is None:
            sub = Subspace.from_json(q, raw)
            if key is not None:
                parsed[key] = sub
        raw = item["coeff"]
        key = None
        if type(raw) is dict and "coeffs" not in raw:
            m, j = raw.get("m"), raw.get("j")
            if type(m) is int and type(j) is int:
                key = (m, j)
        coeff = parsed.get(key)
        if coeff is None:
            coeff = CycInt.from_json(q, raw)
            if key is not None:
                parsed[key] = coeff
        if sub in terms:
            raise ValueError(f"duplicate subspace in serialized vector: {sub!r}")
        terms[sub] = coeff
    return LatticeVector(q, n, terms)


def _accumulate(pairs: Iterable[tuple[Hashable, CycInt]]) -> dict:
    """Sum the values of (key, value) pairs by key, in order of first sight.

    The one sum behind every linear map given by the images of basis
    subspaces (U, theta, gamma).  A key met once keeps its value
    unchanged, with no add against a zero; a sum that cancels stays in the
    result as zero, and ``LatticeVector._of`` drops it.
    """
    acc: dict = {}
    for key, value in pairs:
        cur = acc.get(key)
        acc[key] = value if cur is None else cur + value
    return acc


def up_apply(v: LatticeVector) -> LatticeVector:
    """Linear extension of x -> sum of the subspaces covering x."""
    images = ((cover, coeff) for sub, coeff in v.items() for cover in covers_of(sub))
    return LatticeVector._of(v.q, v.n, _accumulate(images))


def inner(v: LatticeVector, w: LatticeVector) -> CycInt:
    """Standard inner product; conjugate-linear in the second argument."""
    v._check_compatible(w)
    vt, wt = v._terms, w._terms
    total = CycInt.zero(v.q)
    for sub in vt.keys() & wt.keys():
        total = total + vt[sub] * wt[sub].conj()
    return total


def gram(vectors: Sequence[LatticeVector]) -> np.ndarray:
    """Every inner product <v, w> of a list of vectors at once, exactly.

    Returns an array of shape (len(vectors), len(vectors), q - 1) whose
    entry [i, j] holds ``inner(vectors[i], vectors[j]).coeffs``; it is
    (0, 0, 0) for an empty list.

    The vectors become q - 1 coefficient planes (the power-basis
    coefficients of their Z[w] entries) over the S subspaces of their
    supports.  The product of plane i with plane j lands in the root-count
    slot (i - j) mod q, and the slots G_0..G_(q-1) fold to the power basis
    as C_t = G_t - G_(q-1).  int64 is used only when 2 (q-1) S max|c|^2 <
    2^63 bounds every partial sum; otherwise the planes hold Python ints.
    Rows go through in blocks, so the work space beyond the result and the
    planes stays O(block * S).
    """
    if not vectors:
        return np.zeros((0, 0, 0), dtype=np.int64)
    for v in vectors:
        vectors[0]._check_compatible(v)
    q = vectors[0].q
    supports = dict.fromkeys(sub for v in vectors for sub in v._terms)
    index = {sub: col for col, sub in enumerate(supports)}
    size = max(len(index), 1)
    dtype = _plane_dtype(2 * (q - 1) * size * _max_coeff(vectors) ** 2)
    out = np.zeros((q - 1, len(vectors), len(vectors)), dtype=dtype)
    planes = _planes(vectors, index, np.zeros((q - 1, len(vectors), len(index)), dtype=dtype))
    step = max(1, _GRAM_BLOCK // size)
    for lo in range(0, len(vectors), step):
        block = out[:, lo : lo + step]
        for i in range(q - 1):
            for j in range(q - 1):
                prod = planes[i, lo : lo + step] @ planes[j].T
                if j == i + 1:  # slot q-1: folds into every power-basis slot
                    block -= prod
                else:
                    block[(i - j) % q] += prod
    return np.moveaxis(out, 0, -1)


def gram_pairs(vectors: Sequence[LatticeVector]) -> tuple[np.ndarray, np.ndarray]:
    """The inner products <v, w> of a list of vectors that can be nonzero,
    exactly: the sparse form of ``gram`` for vectors that rarely meet.

    Returns ``(pairs, values)``.  ``pairs`` is a (P, 2) intp array of the
    index pairs (i, j), i <= j, whose supports share a subspace, in
    row-major order; ``values[p]`` holds ``inner(vectors[i],
    vectors[j]).coeffs``, a (P, q - 1) array.  A pair that is not listed
    shares no subspace, so its inner product is 0; a listed one may still
    sum to 0.  For an empty list both arrays are empty.

    The terms are grouped by subspace, and each term is multiplied by the
    conjugate of every term after it on its subspace, itself included:
    deg (deg + 1) / 2 products on a subspace in deg supports, against the
    N^2 S of ``gram``.  Each product lands in root-count slots as in
    ``gram``.  A pair sums over at most L shared subspaces, L the longest
    support, so int64 is used only when 2 (q-1) L max|c|^2 < 2^63 bounds
    every partial sum; otherwise the planes hold Python ints.  The products
    go through in chunks of about _PAIR_BLOCK plane entries, each summed by
    pair into the running totals, so the work space beyond the result is
    O(chunk).
    """
    if not vectors:
        return np.zeros((0, 2), dtype=np.intp), np.zeros((0, 0), dtype=np.int64)
    for v in vectors:
        vectors[0]._check_compatible(v)
    q, count = vectors[0].q, len(vectors)
    index: dict[Subspace, int] = {}
    cols, rows, coeffs = [], [], []
    for row, v in enumerate(vectors):
        for sub, coeff in v._terms.items():
            cols.append(index.setdefault(sub, len(index)))
            rows.append(row)
            coeffs.append(coeff.coeffs)
    longest = max(map(len, vectors))
    dtype = _plane_dtype(2 * (q - 1) * max(longest, 1) * _max_coeff(vectors) ** 2)
    cols = np.asarray(cols, dtype=np.intp)
    # the terms by subspace, each subspace's in row order
    order = np.argsort(cols, kind="stable")
    rows = np.asarray(rows, dtype=np.int64)[order]
    planes = np.array(coeffs, dtype=dtype).reshape(-1, q - 1).T[:, order]
    degree = np.bincount(cols)
    # the products each term starts: with itself and the later terms on its
    # subspace, up to the subspace's last term
    later = np.repeat(np.cumsum(degree), degree) - np.arange(len(rows))
    ends = np.cumsum(later)
    keys = np.zeros(0, dtype=np.int64)
    sums = np.zeros((q - 1, 0), dtype=dtype)
    budget = max(1, _PAIR_BLOCK // (q - 1))
    lo = 0
    while lo < len(later):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - later[lo] + budget, "right")))
        counts = later[lo:hi]
        a = np.repeat(np.arange(lo, hi), counts)
        b = a + np.arange(len(a)) - np.repeat(np.cumsum(counts) - counts, counts)
        keys = np.concatenate([keys, rows[a] * count + rows[b]])
        sums = np.concatenate([sums, _conj_products(planes[:, a], planes[:, b])], axis=1)
        # the running totals: one column per distinct pair, in key order
        order = np.argsort(keys, kind="stable")
        keys, sums = keys[order], sums[:, order]
        heads = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        keys, sums = keys[heads], np.add.reduceat(sums, heads, axis=1)
        lo = hi
    pairs = np.stack(divmod(keys, count), axis=1).astype(np.intp)
    return pairs, np.ascontiguousarray(sums.T)


def _conj_products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The power-basis planes of left * conj(right), entry by entry, for two
    (q-1, C) coefficient planes: plane i times plane j lands in root-count
    slot (i - j) mod q, and slot q-1 folds into every power-basis slot."""
    q = len(left) + 1
    slots = np.zeros((q, left.shape[1]), dtype=left.dtype)
    prod = np.empty_like(slots[0])
    for i in range(q - 1):
        for j in range(q - 1):
            slots[(i - j) % q] += np.multiply(left[i], right[j], out=prod)
    return slots[:-1] - slots[-1]


def up_mismatches(
    vectors: Sequence[LatticeVector], successors: Sequence[LatticeVector]
) -> np.ndarray:
    """A bool array whose entry i says whether U(vectors[i]) != successors[i].

    The source columns are the subspaces in the vectors' supports, of any
    rank, so a stray term gets the verdict ``up_apply`` gives it.  Each
    target column (a cover of a source, or a subspace in a successor's
    support) gathers the sources it covers, and ``_image_mismatches`` sums
    and compares them.  The targets are numbered by their number of
    sources, so the targets of each count take one run of columns.
    """
    if len(vectors) != len(successors):
        raise ValueError(f"{len(vectors)} vectors but {len(successors)} successors")
    for v in [*vectors, *successors]:
        vectors[0]._check_compatible(v)
    supports = dict.fromkeys(sub for v in vectors for sub in v._terms)
    sources = {sub: col for col, sub in enumerate(supports)}
    inside: dict[Subspace, list[int]] = {}  # target -> the sources it covers
    for sub, col in sources.items():
        for cover in covers_of(sub):
            inside.setdefault(cover, []).append(col)
    for v in successors:
        for sub in v._terms:
            inside.setdefault(sub, [])
    by_count: dict[int, list[Subspace]] = {}
    for sub, cols in inside.items():
        by_count.setdefault(len(cols), []).append(sub)
    targets: dict[Subspace, int] = {}
    gather = []
    for count, subs in by_count.items():
        for sub in subs:
            targets[sub] = len(targets)
        rows = [inside[sub] for sub in subs]
        gather.append(np.array(rows, dtype=np.intp).reshape(len(subs), count))
    return _image_mismatches(vectors, sources, successors, targets, gather)


def _image_mismatches(vectors, sources, expected, targets, gather, scale=1) -> np.ndarray:
    """A bool array whose entry i says whether M(vectors[i]) != scale *
    expected[i], where the 0/1 map M sends the source columns to the
    target columns as ``gather`` lists: a sequence of (T_g, d_g) arrays
    that take the target columns in order, each row the d_g source
    columns one target sums.  The work is the number of incidences.

    Rows go through in blocks of about _UP_BLOCK plane entries, one
    coefficient plane at a time; when ``expected`` is ``vectors`` on the
    same columns, their planes are built once.  Each image starts at -scale
    times the expected one and adds at most S source entries (S source
    columns), so int64 is used only when (S + |scale|) max|coeff| < 2^63
    bounds every partial sum; otherwise the planes hold Python ints.
    """
    out = np.zeros(len(vectors), dtype=bool)
    same = expected is vectors and targets is sources
    bound = len(sources) + abs(scale)
    dtype = _plane_dtype(bound * _max_coeff(vectors if same else [*vectors, *expected]))
    step = max(1, _UP_BLOCK // (len(sources) + len(targets) + 1))
    for lo in range(0, len(vectors), step):
        rows = slice(lo, lo + step)
        block = vectors[rows]
        shape = (block[0].q - 1, len(block))
        planes = _planes(block, sources, np.zeros(shape + (len(sources),), dtype))
        if same:
            expect = planes
        else:
            expect = _planes(expected[rows], targets, np.zeros(shape + (len(targets),), dtype))
        image = np.empty((len(block), len(targets)), dtype=dtype)
        for plane, want in zip(planes, expect):
            np.multiply(want, -scale, out=image)  # zero where M v = scale * expected
            start = 0
            for group in gather:
                part = image[:, start : start + len(group)]
                for slot in group.T:
                    part += plane[:, slot]
                start += len(group)
            out[rows] |= image.any(axis=1)
    return out


_GRAM_BLOCK = 1 << 13  # plane entries per block of rows in gram
_PAIR_BLOCK = 1 << 18  # plane entries of products per chunk in gram_pairs
_UP_BLOCK = 1 << 16  # plane entries per block of rows in _image_mismatches


def _plane_dtype(bound: int):
    """The dtype of exact coefficient planes whose entries and partial sums
    are all at most ``bound`` in magnitude: int64 when bound < 2^63, else
    object (Python ints)."""
    return np.int64 if bound < 1 << 63 else object


def _max_coeff(vectors: Sequence[LatticeVector]) -> int:
    """The largest |coefficient| on the power basis, at least 1."""
    return max(
        (abs(a) for v in vectors for c in v._terms.values() for a in c.coeffs),
        default=1,
    )


def _planes(vectors, index: dict[Subspace, int], planes: np.ndarray) -> np.ndarray:
    """Fill ``planes``, a zero (q-1, len(vectors), >= len(index)) array, with
    the power-basis coefficient planes of the vectors, and return it; terms
    on subspaces outside ``index`` are dropped."""
    for row, v in enumerate(vectors):
        for sub, coeff in v._terms.items():
            col = index.get(sub)
            if col is not None:
                planes[:, row, col] = coeff.coeffs
    return planes

