"""Exact rank over the fraction field of Z[w]: the exact spanning certificate
of test_sjb."""

from qjordan import CycInt


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
                m[i][j] = t if prev is None else t.divexact(prev)
            m[i][rank] = CycInt.zero(piv.p)
        prev = piv
        rank += 1
    return rank
