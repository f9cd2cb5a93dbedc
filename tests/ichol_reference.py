"""The original row-wise incomplete Cholesky loop of `nsdarcy.sparse.ichol`,
kept as the oracle that the faster loop must match bit for bit.

This version reads and writes NumPy scalars one at a time. `sparse.ichol`
runs the same algorithm on plain Python floats and ints: same ascending
column order, same update w[j] - y*l_jk in finished-row order, same drop
test and shift rule, so its L (indptr, indices and the bit patterns of
data) and shift count must equal this one's on every input.
"""

from __future__ import annotations

import heapq

import numpy as np
import scipy.sparse as sp

from nsdarcy.sparse import (DimensionMismatch, NotSymmetric, Singular,
                            as_csr)


@np.errstate(over="ignore", invalid="ignore")
def ichol_reference(A, droptol: float = 1e-3) -> tuple[sp.csr_matrix, int]:
    """Row-wise incomplete Cholesky with drop tolerance; returns (L, shifts).

    Row i of L solves L[:i,:i] y = A[i,:i]; entries with
    |y_k| < droptol*sqrt(|A_ii|) are dropped as they are produced and then
    contribute no updates. A nonpositive pivot is replaced by |A_ii| and
    counted as a breakdown shift.

    After a tiny pivot a row overflows to inf, and inf - inf gives NaN,
    silently, as with the Python floats of `sparse.ichol`; the caller
    expects `Singular` where this factor is not finite.
    """
    A = as_csr(A)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"ichol needs a square matrix, got {A.shape}")
    skew = abs(A - A.T)
    scale = max(1.0, abs(A).max())
    if skew.nnz and skew.max() > 1e-12 * scale:
        raise NotSymmetric(f"max |A - A^T| = {skew.max():.3e}")

    indptr, indices, data = A.indptr, A.indices, A.data
    diag = A.diagonal()
    row_cols: list[np.ndarray] = []
    row_vals: list[np.ndarray] = []
    ldiag = np.empty(n)
    # column structure of the finished rows, for the scatter updates
    col_rows: list[list[int]] = [[] for _ in range(n)]
    col_vals: list[list[float]] = [[] for _ in range(n)]
    shifts = 0

    w = np.zeros(n)
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        cols0 = indices[lo:hi]
        keep0 = cols0 < i
        active = cols0[keep0].tolist()
        w[active] = data[lo:hi][keep0]
        heapq.heapify(active)
        pivot = diag[i]
        drop = droptol * np.sqrt(abs(diag[i]))

        kept_c: list[int] = []
        kept_v: list[float] = []
        seen = -1
        while active:
            k = heapq.heappop(active)
            if k == seen:
                continue
            seen = k
            y = w[k] / ldiag[k]
            w[k] = 0.0
            if abs(y) < drop:
                continue
            kept_c.append(k)
            kept_v.append(y)
            pivot -= y * y
            # column k holds only rows finished before i
            for j, ljk in zip(col_rows[k], col_vals[k]):
                if w[j] == 0.0:
                    heapq.heappush(active, j)
                w[j] -= y * ljk

        if pivot <= 0.0:
            pivot = abs(diag[i])
            shifts += 1
            if pivot == 0.0:
                raise Singular(f"zero diagonal at row {i}")
        ldiag[i] = np.sqrt(pivot)
        for c, v in zip(kept_c, kept_v):
            col_rows[c].append(i)
            col_vals[c].append(v)
        row_cols.append(np.array(kept_c + [i], dtype=np.int64))
        row_vals.append(np.array(kept_v + [ldiag[i]]))

    nnz = np.array([len(c) for c in row_cols])
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(nnz, out=ptr[1:])
    L = sp.csr_matrix((np.concatenate(row_vals), np.concatenate(row_cols), ptr),
                      shape=(n, n))
    return L, shifts
