"""Exact rank over the fraction field of Z[w] (the exact spanning certificate
of test_sjb), with the Galois action and exact division in Z[w] it rests on.
The package itself needs neither: its one automorphism is ``CycInt.conj``
and it divides nothing in Z[w]."""

from qjordan import CycInt


def galois(a: CycInt, s: int) -> CycInt:
    """The automorphism w -> w^s of Z[w] (s prime to p), term by term."""
    assert s % a.p, "w -> w^0 is not an automorphism"
    return sum((CycInt.monomial(a.p, c, j * s) for j, c in enumerate(a.coeffs)), CycInt.zero(a.p))


def divexact(a: CycInt, b: CycInt) -> CycInt:
    """a / b in Z[w]: a times the conjugates of b other than b, over the
    norm of b (a rational integer); raises unless the quotient is in Z[w]."""
    if b.is_zero:
        raise ZeroDivisionError("division by zero")
    num, norm = a, b
    for s in range(2, a.p):
        num, norm = num * galois(b, s), norm * galois(b, s)
    quotients = [divmod(c, norm.to_int()) for c in num.coeffs]
    if any(r for _, r in quotients):
        raise ValueError(f"{a!r} is not divisible by {b!r}")
    return CycInt(a.p, tuple(d for d, _ in quotients))


def cyc_matrix_rank(rows: list[list[CycInt]]) -> int:
    """Exact rank of a matrix over the fraction field of Z[w].

    Fraction-free Bareiss elimination; the intermediate exact divisions stay
    in Z[w] by the Sylvester determinant identity.
    """
    if not rows:
        return 0
    m = [list(r) for r in rows]
    nr, nc = len(m), len(m[0])
    rank = 0
    prev = None
    for _step in range(min(nr, nc)):
        # find a nonzero pivot anywhere in the remaining block
        pr = pc = -1
        for i in range(rank, nr):
            for j in range(rank, nc):
                if not m[i][j].is_zero:
                    pr, pc = i, j
                    break
            if pr >= 0:
                break
        if pr < 0:
            break
        if pr != rank:
            m[rank], m[pr] = m[pr], m[rank]
        if pc != rank:
            for r in m:
                r[rank], r[pc] = r[pc], r[rank]
        piv = m[rank][rank]
        for i in range(rank + 1, nr):
            for j in range(rank + 1, nc):
                t = m[i][j] * piv - m[i][rank] * m[rank][j]
                m[i][j] = t if prev is None else divexact(t, prev)
            m[i][rank] = CycInt.zero(piv.p)
        prev = piv
        rank += 1
    return rank
