"""Arithmetic modulo a prime for the tests: the rank over Z/p behind the
spanning certificate of test_sjb, and the trial-division primality test
that the package's Miller-Rabin ``is_prime`` is checked against."""

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


def trial_division_is_prime(n: int) -> bool:
    """Reference primality test: no divisor d with d * d <= n."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
