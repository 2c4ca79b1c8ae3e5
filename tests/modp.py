"""Rank over Z/p for a large prime p: the spanning certificate of test_sjb."""

import numpy as np


def modp_rank(mat: np.ndarray, p: int) -> int:
    """Rank of an int64 matrix over Z/p for a prime p < 2^31.

    Entries must already be reduced mod p; products of reduced entries fit
    in int64.  The matrix is clobbered.
    """
    nr, nc = mat.shape
    row = 0
    for col in range(nc):
        piv = -1
        for i in range(row, nr):
            if mat[i, col] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != row:
            for j in range(col, nc):
                t = mat[row, j]
                mat[row, j] = mat[piv, j]
                mat[piv, j] = t
        inv = pow(int(mat[row, col]), p - 2, p)
        for i in range(row + 1, nr):
            if mat[i, col] != 0:
                f = (mat[i, col] * inv) % p
                for j in range(col, nc):
                    mat[i, j] = (mat[i, j] - f * mat[row, j]) % p
        row += 1
        if row == nr:
            break
    return row
