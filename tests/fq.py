"""Reference subspace algebra and translation-group oracles over F_q.

Written for clarity, not speed, from plain row reduction and brute-force
span sets, so they share no code with the package they check.  A subspace
of F_q^(n+1) outside the hyperplane F_q^n is moved by the group vector a
through (b, c) -> (b + c*a, c).
"""

from functools import cache
from itertools import product

import numpy as np

from qjordan import CycInt, Subspace, enumerate_rank


def naive_rref(mat, q):
    """Reference row reduction: (the reduced rows, the rank)."""
    m = [[int(x) % q for x in row] for row in mat]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    row = 0
    for col in range(nc):
        piv = next((i for i in range(row, nr) if m[i][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = pow(m[row][col], q - 2, q)
        m[row] = [(x * inv) % q for x in m[row]]
        for i in range(nr):
            if i != row and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % q for a, b in zip(m[i], m[row])]
        row += 1
        if row == nr:
            break
    return m, row


def span_set(vectors, q, n):
    """All linear combinations of the given length-n vectors, as a
    frozenset: a way to identify a subspace that uses no normal form."""
    span = {(0,) * n}
    for v in vectors:
        span = {tuple((a + c * b) % q for a, b in zip(s, v)) for s in span for c in range(q)}
    return frozenset(span)


@cache
def points(sub):
    """All vectors of the subspace."""
    return span_set(sub.matrix.T.tolist(), sub.q, sub.n)


def _check_compatible(x, y):
    if x.q != y.q:
        raise ValueError(f"mixed fields: q={x.q} vs q={y.q}")
    if x.n != y.n:
        raise ValueError(f"mixed ambients: n={x.n} vs n={y.n}")


def contains(x, y):
    """Is y a subspace of x?  Then y's columns add nothing to x's rank."""
    _check_compatible(x, y)
    return naive_rref(np.hstack([x.matrix, y.matrix]), x.q)[1] == x.k


def covers(x, y):
    """Is y a subspace of x of one dimension less?"""
    return x.k == y.k + 1 and contains(x, y)


def intersect(x, y):
    _check_compatible(x, y)
    return Subspace.span(x.q, x.n, points(x) & points(y))


def restrict(x, ambient):
    """x as a subspace of F_q^ambient; its trailing coordinates must vanish."""
    if ambient > x.n or x.matrix[ambient:].any():
        raise ValueError(f"{x!r} does not lie in the first {ambient} coordinates")
    return Subspace.from_matrix(x.q, x.matrix[:ambient])


@cache
def group_vectors(n, q):
    """All of F_q^n in lexicographic order, as tuples: the translation group."""
    return tuple(product(range(q), repeat=n))


def exponent(chi, a):
    """c . a mod q: chi_c(a) = w^exponent."""
    return sum(ci * ai for ci, ai in zip(chi.c, a)) % chi.q


def stabilizer(x):
    """The group vectors that fix x, a subspace outside the hyperplane."""
    return tuple(a for a in group_vectors(x.n - 1, x.q) if act(a, x) is x)


def act(a, x):
    """Image of x under the group vector a."""
    n, q = x.n - 1, x.q
    if len(a) != n:
        raise ValueError(f"group vector length {len(a)} != {n}")
    if not x.matrix[n].any():
        raise ValueError(f"{x!r} lies in the hyperplane")
    cols = x.matrix.T.tolist()
    moved = [[(b + col[n] * s) % q for b, s in zip(col, a)] + [col[n]] for col in cols]
    return Subspace.span(q, x.n, moved)


def h_map(x):
    """x intersect F_q^n, in its own ambient F_q^n."""
    n = x.n - 1
    return Subspace.span(x.q, n, [v[:n] for v in points(x) if not v[n]])


@cache
def fixed_points(n, k, q):
    """Group vector a -> the number of dim-k subspaces of F_q^(n+1) outside
    the hyperplane that a fixes, by moving each of them by each a."""
    outside = [x for x in enumerate_rank(n + 1, k, q) if x.matrix[n].any()]
    return {a: sum(act(a, x) is x for x in outside) for a in product(range(q), repeat=n)}


def perm_character(n, k, a, q):
    if not 1 <= k <= n + 1:
        raise ValueError(f"k must lie in 1..{n + 1}, got {k}")
    return fixed_points(n, k, q)[tuple(x % q for x in a)]


def character_multiplicity(chi, n, k):
    """Multiplicity of chi in the action on dim-k subspaces: the exact
    character inner product sum_a conj(chi(a)) fix(a) / q^n."""
    q = chi.q
    total = CycInt.zero(q)
    for a, count in fixed_points(n, k, q).items():
        total = total + CycInt.omega(q, -exponent(chi, a) % q) * count
    mult, rem = divmod(total.to_int(), q**n)
    assert not rem, f"character inner product {total} not divisible by {q**n}"
    return mult
