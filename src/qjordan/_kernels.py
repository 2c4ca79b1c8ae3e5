"""Hot kernels: batched Gaussian elimination over F_q.

Matrix canonicalization dominates the runtime of basis construction (orbit
tables, cover enumeration and intersection tables all reduce batches of tiny
matrices mod q).  There is one kernel: plain Python loops over numpy int64
arrays, so ``active_backend()`` always reports ``"numpy"``.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """The kernel that runs: always ``"numpy"`` (interpreted loops)."""
    return "numpy"


def inverse_table(q: int) -> np.ndarray:
    """inv[x] = multiplicative inverse of x mod q (prime q); inv[0] = 0."""
    inv = np.zeros(q, dtype=np.int64)
    for x in range(1, q):
        inv[x] = pow(x, q - 2, q)
    return inv


def rref_batch(mats: np.ndarray, q: int, inv: np.ndarray) -> np.ndarray:
    """Row-reduce every matrix of the (B, r, c) int64 batch mod q, in place.

    Pivots are found scanning rows top-down within columns left to right,
    so the result is the unique reduced row echelon form.  Returns the rank
    of each matrix.
    """
    nb, nr, nc = mats.shape
    ranks = np.empty(nb, dtype=np.int64)
    for b in range(nb):
        m = mats[b]
        row = 0
        for col in range(nc):
            piv = -1
            for i in range(row, nr):
                if m[i, col] != 0:
                    piv = i
                    break
            if piv < 0:
                continue
            if piv != row:
                for j in range(nc):
                    t = m[row, j]
                    m[row, j] = m[piv, j]
                    m[piv, j] = t
            a = inv[m[row, col]]
            if a != 1:
                for j in range(col, nc):
                    m[row, j] = (m[row, j] * a) % q
            for i in range(nr):
                if i != row and m[i, col] != 0:
                    f = m[i, col]
                    for j in range(col, nc):
                        m[i, j] = (m[i, j] - f * m[row, j]) % q
            row += 1
            if row == nr:
                break
        ranks[b] = row
    return ranks


def rank_batch(mats: np.ndarray, q: int, inv: np.ndarray) -> np.ndarray:
    """Rank of every matrix of the (B, r, c) int64 batch mod q.

    Forward elimination only; the batch is clobbered.
    """
    nb, nr, nc = mats.shape
    ranks = np.empty(nb, dtype=np.int64)
    for b in range(nb):
        m = mats[b]
        row = 0
        for col in range(nc):
            piv = -1
            for i in range(row, nr):
                if m[i, col] != 0:
                    piv = i
                    break
            if piv < 0:
                continue
            if piv != row:
                for j in range(col, nc):
                    t = m[row, j]
                    m[row, j] = m[piv, j]
                    m[piv, j] = t
            a = inv[m[row, col]]
            for i in range(row + 1, nr):
                if m[i, col] != 0:
                    f = (m[i, col] * a) % q
                    for j in range(col, nc):
                        m[i, j] = (m[i, j] - f * m[row, j]) % q
            row += 1
            if row == nr:
                break
        ranks[b] = row
    return ranks
