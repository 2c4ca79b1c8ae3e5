"""Kernels: batched Gaussian elimination over F_q.

Both take numpy int64 batches and the inverse table of F_q
(``gflinalg.inv_table``).  ``rref_batch`` reduces each matrix of a batch as
Python int rows and serves the one subspace canonicalizer (cover
enumeration, orbit tables, parsed subspaces), whose batches mostly hold one
to a few small matrices.  ``rank_batch`` eliminates a whole batch at once
with numpy and serves the Grassmann scheme's relation matrix, whose batches
hold thousands.  Each is the slower one on the other's batches (measured
on a 2-core VM): whole-batch elimination extended to RREF costs about
100 us a call on batches of 1-5, which slowed ``decompose`` at q=3, n=3
from 0.078 s to 0.164 s; the row lists take 7.5-11 ms per 1,024 random 4x4
matrices (q = 2, 3) against 1.7 ms for ``rank_batch``.
``active_backend()`` always reports ``"numpy"``.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """The kernel that runs: always ``"numpy"`` (interpreted loops)."""
    return "numpy"


def rref_batch(mats: np.ndarray, q: int, inv: np.ndarray) -> np.ndarray:
    """Row-reduce every matrix of the (B, r, c) int64 batch mod q, in place.

    Pivots are found scanning rows top-down within columns left to right,
    so the result is the unique reduced row echelon form.  Each matrix is
    reduced as a list of Python int rows, read with one ``tolist()`` and
    written back once.  Returns the rank of each matrix.
    """
    nr, nc = mats.shape[1:]
    inv = inv.tolist()
    out = mats.tolist()
    ranks = []
    for m in out:
        row = 0
        for col in range(nc):
            for piv in range(row, nr):
                if m[piv][col]:
                    break
            else:
                continue
            top = m[piv]
            m[piv] = m[row]
            a = inv[top[col]]
            if a != 1:
                top = [x * a % q for x in top]
            m[row] = top
            for i, r in enumerate(m):
                f = r[col]
                if f and i != row:
                    m[i] = [(x - f * y) % q for x, y in zip(r, top)]
            row += 1
            if row == nr:
                break
        ranks.append(row)
    if mats.size:
        mats[...] = out
    return np.array(ranks, dtype=np.int64)


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
