"""Kernels: batched Gaussian elimination over F_q.

There is one implementation, interpreted, over numpy int64 arrays, with the
inverse table of F_q (``gflinalg.inv_table``) passed in: ``rref_batch``
loops over the matrices of a batch and serves the one subspace
canonicalizer (cover enumeration, orbit tables, parsed subspaces);
``rank_batch`` eliminates a whole batch at once and serves the Grassmann
scheme's relation matrix.  ``active_backend()`` always reports ``"numpy"``.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """The kernel that runs: always ``"numpy"`` (interpreted loops)."""
    return "numpy"


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

    Forward elimination of the whole batch at once, one column at a time:
    each matrix's pivot is the first nonzero entry at or below its own
    current row, moved up by a row swap and cleared below by one broadcast
    multiply-subtract mod q.  Entries must lie in 0..q-1; the batch is
    clobbered.
    """
    nb, nr, nc = mats.shape
    ranks = np.zeros(nb, dtype=np.int64)
    rows = np.arange(nr)
    for col in range(nc):
        cand = (mats[:, :, col] != 0) & (rows >= ranks[:, None])
        lanes = np.flatnonzero(cand.any(axis=1))
        if not len(lanes):
            continue
        top, piv = ranks[lanes], cand[lanes].argmax(axis=1)
        mats[lanes, top], mats[lanes, piv] = mats[lanes, piv], mats[lanes, top]
        pivot_rows = mats[lanes, top, col:]
        f = mats[lanes, :, col] * inv[pivot_rows[:, 0]][:, None] % q
        f[rows <= top[:, None]] = 0
        work = mats[lanes, :, col:]
        work -= f[:, :, None] * pivot_rows[:, None, :]
        mats[lanes, :, col:] = work % q
        ranks[lanes] += 1
    return ranks
