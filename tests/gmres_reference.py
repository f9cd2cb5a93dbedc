"""The modified Gram-Schmidt GMRES loop that `nsdarcy.sparse.gmres`
replaced, kept as the oracle that the CGS2 loop must follow.

This version orthogonalizes each new Krylov vector against the basis one
row at a time (j + 1 dot products and updates at step j) and allocates a
fresh basis every restart cycle. `sparse.gmres` runs the same method (same
Krylov space, left preconditioning, stopping tests and breakdown rule)
with classical Gram-Schmidt run twice, so it must take the same number of
iterations on every input and agree in its solution up to rounding.
"""

from __future__ import annotations

import numpy as np

from nsdarcy.sparse import (DimensionMismatch, Preconditioner, SolveReport,
                            as_csr)


def gmres_reference(A, b, P: Preconditioner | None = None, tol: float = 1e-9,
                    restart: int = 50, maxit: int = 5000):
    """Left-preconditioned restarted GMRES with modified Gram-Schmidt.

    Stops when the preconditioned residual drops below tol relative to the
    initial preconditioned residual."""
    A = as_csr(A)
    b = np.asarray(b, dtype=float)
    if A.shape[1] != b.shape[0]:
        raise DimensionMismatch(f"matrix {A.shape} vs rhs {b.shape}")
    P = P or Preconditioner()
    n = b.shape[0]
    x = np.zeros(n)
    r = P.apply(b)   # the preconditioned residual at x = 0
    beta0 = np.linalg.norm(r)
    if beta0 == 0.0:
        return x, SolveReport(0, 0.0, True, "gmres")

    total, exhausted = 0, False
    while True:
        rel = np.linalg.norm(r) / beta0
        if rel <= tol or total >= maxit or exhausted:
            return x, SolveReport(total, rel, rel <= tol, "gmres")
        m = min(restart, maxit - total, n)
        V = np.empty((m + 1, n))
        V[0] = r / (rel * beta0)
        H = np.zeros((m + 1, m))
        cs = np.empty(m)
        sn = np.empty(m)
        g = np.zeros(m + 1)
        g[0] = rel * beta0
        for j in range(m):
            w = P.apply(A @ V[j])
            for i in range(j + 1):
                H[i, j] = w @ V[i]
                w -= H[i, j] * V[i]
            H[j + 1, j] = np.linalg.norm(w)
            if H[j + 1, j] > 0:
                V[j + 1] = w / H[j + 1, j]
            else:
                exhausted = True  # Krylov space closed; solve and leave
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            d = np.hypot(H[j, j], H[j + 1, j])
            cs[j], sn[j] = H[j, j] / d, H[j + 1, j] / d
            H[j, j] = d
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            total += 1
            if abs(g[j + 1]) / beta0 <= tol or total >= maxit or exhausted:
                break
        y = np.linalg.solve(np.triu(H[:j + 1, :j + 1]), g[:j + 1])
        x = x + V[:j + 1].T @ y
        r = P.apply(b - A @ x)
