"""Sparse solver stack: incomplete Cholesky, PCG, restarted GMRES, direct LU.

Matrix storage and products go through scipy.sparse CSR; the factorization
and Krylov loops live here because their behavior (drop rule, breakdown
shift, GMRES's CGS2 orthogonalization, stopping tests, preconditioner
structure) is part of the method.

Which of these a solve site uses, and what its report says, is decided in
one place, `coupled.System` (`factor`, then `solve`): every report carries
the true relative residual ||b - K x|| / ||b|| of the system's K, and a
solve that does not converge raises NotConverged. A direct Mini system
comes already condensed (forms.MiniSaddle), so that residual is the
condensed system's; the factor eliminates nothing itself.

A DirectFactor is float64, or, with `single`, float32 refined in float64
against its matrix until the true residual is at float64's floor, LAPACK
dsgesv's test ||r||_inf <= sqrt(n) eps ||A||_inf ||x||_inf; a step that
does not halve the residual factors the matrix again in float64.
`System.factor` asks for float32 unless `refill` changes K (Picard,
whose float64 factor preconditions GMRES on later iterates). A direct
report's `iterations` counts the triangular solves: 1 for a float64
factor, those of the refinement (and of the fallback) for a float32 one.

Saddle systems are preconditioned by a block upper-triangular operator

    [ Ahat  B^T  C  ]
    [  0   -Mhat 0  ]
    [  0     0  Aphat ]

with Ahat/Aphat incomplete-Cholesky applications of the (symmetrized)
diagonal blocks and Mhat the pressure mass diagonal scaled by 1/nu.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class DimensionMismatch(Exception):
    pass


class NotSymmetric(Exception):
    pass


class Singular(Exception):
    pass


class NotConverged(Exception):
    pass


def as_csr(A) -> sp.csr_matrix:
    """A as canonical CSR, without sorting A itself in place."""
    A = sp.csr_matrix(A)
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    return A


@dataclass
class SolveReport:
    iterations: int
    final_residual: float
    converged: bool
    method: str = ""


class Preconditioner:
    def apply(self, r: np.ndarray) -> np.ndarray:
        return r


class IncompleteCholesky(Preconditioner):
    """Lower-triangular incomplete factor; apply solves L L^T z = r."""

    def __init__(self, L: sp.csr_matrix, shifts: int):
        self.L = L
        self.shifts = shifts
        # SuperLU of a triangular matrix under natural ordering is the matrix
        # itself; it provides compiled forward and transposed solves. Its
        # pivot ratios can still overflow when a diagonal entry is tiny.
        try:
            self._lu = spla.splu(L.tocsc(), permc_spec="NATURAL",
                                 options={"DiagPivotThresh": 0.0,
                                          "SymmetricMode": False})
        except RuntimeError as exc:
            raise Singular(f"incomplete factor: {exc}") from exc

    def apply(self, r):
        y = self._lu.solve(r, trans="N")
        return self._lu.solve(y, trans="T")


def ichol(A, droptol: float = 1e-3) -> IncompleteCholesky:
    """Row-wise incomplete Cholesky with drop tolerance.

    Row i of L solves L[:i,:i] y = A[i,:i]; entries with
    |y_k| < droptol*sqrt(|A_ii|) are dropped as they are produced and then
    contribute no updates. A nonpositive pivot is replaced by |A_ii| and
    counted as a breakdown shift. A factor with a non-finite entry (a NaN
    pivot, or overflow after a tiny one) raises Singular.

    The arithmetic order is fixed, and `tests/ichol_reference.py` pins it
    bit for bit: the columns k of row i are taken in ascending order, and
    each w[j] is updated as w[j] - y_k*l_jk over the finished rows j of
    column k in ascending order. The loop runs on Python floats and ints.
    L is collected row by row in typed arrays, and the finished columns are
    linked lists through flat lists, so no container is made per row or
    column of L: for memory, and because the garbage collector walks every
    live container.
    """
    A = as_csr(A)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"ichol needs a square matrix, got {A.shape}")
    skew = abs(A - A.T)
    scale = max(1.0, abs(A).max())
    if skew.nnz and skew.max() > 1e-12 * scale:
        raise NotSymmetric(f"max |A - A^T| = {skew.max():.3e}")

    diag = A.diagonal().tolist()
    lower = sp.tril(A, -1, format="csr")   # keeps stored zeros
    lptr = lower.indptr.tolist()
    lind, ldata = lower.indices, lower.data
    ptr, cols, vals = array("q", [0]), array("q"), array("d")
    ldiag = [0.0] * n
    # column k of the finished rows as a linked list: its entries are
    # p = head[k], nxt[p], ... up to tail[k] (nxt is -1 there), entry p
    # sitting in row row_of[p] with value val_of[p]
    head, tail = [-1] * n, [-1] * n
    row_of: list[int] = []
    val_of: list[float] = []
    nxt: list[int] = []
    shifts = 0
    heappop, heappush = heapq.heappop, heapq.heappush

    w = [0.0] * n
    for i in range(n):
        lo, hi = lptr[i], lptr[i + 1]
        active = lind[lo:hi].tolist()
        for k, v in zip(active, ldata[lo:hi].tolist()):
            w[k] = v
        heapq.heapify(active)
        a_ii = diag[i]
        pivot = a_ii
        drop = droptol * math.sqrt(abs(a_ii))

        seen = -1
        while active:
            k = heappop(active)
            if k == seen:
                continue
            seen = k
            y = w[k] / ldiag[k]
            w[k] = 0.0
            if abs(y) < drop:
                continue
            pivot -= y * y
            # column k holds only rows finished before i
            p = head[k]
            while p >= 0:
                j = row_of[p]
                wj = w[j]
                if wj == 0.0:
                    heappush(active, j)
                w[j] = wj - y * val_of[p]
                p = nxt[p]
            p = len(row_of)
            row_of.append(i)
            val_of.append(y)
            nxt.append(-1)
            if tail[k] >= 0:
                nxt[tail[k]] = p
            else:
                head[k] = p
            tail[k] = p
            cols.append(k)
            vals.append(y)

        if pivot <= 0.0:
            pivot = abs(a_ii)
            shifts += 1
            if pivot == 0.0:
                raise Singular(f"zero diagonal at row {i}")
        ldiag[i] = math.sqrt(pivot)
        cols.append(i)
        vals.append(ldiag[i])
        ptr.append(len(cols))

    # the column lists are the largest objects here; free them before the
    # triangular LU of L is built, or they set the study's peak RSS
    del row_of, val_of, nxt, head, tail, w
    L = sp.csr_matrix((np.frombuffer(vals), np.frombuffer(cols, np.int64),
                       np.frombuffer(ptr, np.int64)), shape=(n, n))
    # a NaN pivot passes the shift test, and a tiny one overflows the row
    finite = np.isfinite(L.data)
    if not finite.all():
        row = np.searchsorted(L.indptr, np.argmin(finite), side="right") - 1
        raise Singular(f"non-finite factor entry in row {row}")
    return IncompleteCholesky(L, shifts)


class BlockTriangularPreconditioner(Preconditioner):
    """Upper block-triangular preconditioner for (extended) saddle systems.

    Blocks are taken from the constrained monolithic matrix: velocity block
    sizes nu_, pressure np_, optional head block nphi (coupled systems).
    """

    def __init__(self, K, nu_: int, np_: int, mass_diag: np.ndarray,
                 nu_viscosity: float, nphi: int = 0, droptol: float = 1e-3):
        K = as_csr(K)
        if K.shape[0] != nu_ + np_ + nphi:
            raise DimensionMismatch("block sizes do not cover the matrix")
        self.nu_ = nu_
        self.np_ = np_
        self.nphi = nphi
        Auu = K[:nu_, :nu_]
        self.BT = K[:nu_, nu_:nu_ + np_]
        self.ahat = ichol(as_csr(0.5 * (Auu + Auu.T)), droptol)
        self.mdiag = np.asarray(mass_diag, dtype=float) / nu_viscosity
        if nphi:
            self.C = K[:nu_, nu_ + np_:]
            self.aphat = ichol(K[nu_ + np_:, nu_ + np_:], droptol)

    def apply(self, r):
        nu_, np_ = self.nu_, self.np_
        ru, rp = r[:nu_], r[nu_:nu_ + np_]
        z = np.empty_like(r)
        if self.nphi:
            zphi = self.aphat.apply(r[nu_ + np_:])
            z[nu_ + np_:] = zphi
        zp = -rp / self.mdiag
        z[nu_:nu_ + np_] = zp
        rhs_u = ru - self.BT @ zp
        if self.nphi:
            rhs_u = rhs_u - self.C @ zphi
        z[:nu_] = self.ahat.apply(rhs_u)
        return z


def pcg(A, b, M: Preconditioner | None = None, tol: float = 1e-9,
        maxit: int | None = None):
    """Preconditioned conjugate gradients; stops on ||b-Ax||/||b|| <= tol
    (absolute when b = 0). Non-convergence is reported, not raised."""
    A = as_csr(A)
    b = np.asarray(b, dtype=float)
    if A.shape[1] != b.shape[0]:
        raise DimensionMismatch(f"matrix {A.shape} vs rhs {b.shape}")
    M = M or Preconditioner()
    n = b.shape[0]
    maxit = maxit or 10 * n
    bnorm = np.linalg.norm(b)
    ref = bnorm if bnorm > 0 else 1.0

    x = np.zeros(n)
    r = b.copy()
    res = np.linalg.norm(r)
    if res <= tol * ref:
        return x, SolveReport(0, res / ref, True, "pcg")
    z = M.apply(r)
    p = z.copy()
    rz = r @ z
    for it in range(1, maxit + 1):
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        res = np.linalg.norm(r)
        if res <= tol * ref:
            return x, SolveReport(it, res / ref, True, "pcg")
        z = M.apply(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, SolveReport(maxit, res / ref, False, "pcg")


def gmres(A, b, P: Preconditioner | None = None, tol: float = 1e-9,
          restart: int = 50, maxit: int = 5000):
    """Left-preconditioned restarted GMRES (Saad & Schultz 1986).

    Each new Krylov vector is orthogonalized by classical Gram-Schmidt run
    twice (CGS2: two matrix-vector products per pass against the rows of
    one basis, allocated once per call), as stable as modified Gram-Schmidt
    in GMRES (Giraud, Langou & Rozloznik 2005). Stops when the
    preconditioned residual drops below tol relative to the initial
    preconditioned residual."""
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
    V = np.empty((min(restart, maxit, n) + 1, n))   # every cycle's basis
    while True:
        rel = np.linalg.norm(r) / beta0
        if rel <= tol or total >= maxit or exhausted:
            return x, SolveReport(total, rel, rel <= tol, "gmres")
        m = min(restart, maxit - total, n)
        V[0] = r / (rel * beta0)
        H = np.zeros((m + 1, m))
        cs = np.empty(m)
        sn = np.empty(m)
        g = np.zeros(m + 1)
        g[0] = rel * beta0
        for j in range(m):
            w = P.apply(A @ V[j])
            Vj = V[:j + 1]
            h = Vj @ w
            w -= h @ Vj
            c = Vj @ w
            w -= c @ Vj
            H[:j + 1, j] = h + c
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


# SuperLU's diagonal pivot threshold for the ordered factors: the diagonal
# is the pivot unless it is below this fraction of its column's largest
# entry. At 1e-3 Mini's O(h^2) pressure diagonal is already passed over
# (coupled n=128: 1.6x the fill), from 0.1 up the row swaps undo the
# ordering (Taylor-Hood coupled n=32: 4x the fill), and at 0 a tiny
# diagonal would be taken as the pivot.
DIAG_PIVOT_THRESH = 1e-4


# nested dissection stops at this many unknowns
ND_LEAF = 64


def nested_dissection(g: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Grid nested-dissection order (George 1973) of unknowns at integer
    grid points g (N, 2), as a permutation of range(N).

    The bounding box is cut across its longer side at an even grid line
    near its middle, both halves are ordered recursively, and the unknowns
    on the line (the separator) follow them. At most ND_LEAF unknowns, or
    a box with no even line inside, form a leaf. A leaf or separator is
    ordered by (y, x), those marked in the mask `last` after the others.
    Every sort is stable, so unknowns at one point and marked alike keep
    their given order.
    """
    g = np.asarray(g, dtype=np.int64)
    last = np.asarray(last, dtype=bool)
    out = []

    def by_yx(idx):
        return idx[np.lexsort((g[idx, 0], g[idx, 1], last[idx]))]

    def dissect(idx):
        if idx.size > ND_LEAF:
            pts = g[idx]
            lo, hi = pts.min(axis=0), pts.max(axis=0)
            axis = int(hi[1] - lo[1] > hi[0] - lo[0])
            lo, hi = lo[axis], hi[axis]
            # the even line nearest the middle, moved off the box's edge
            line = 2 * ((lo + hi + 2) // 4)
            line += 2 * (line <= lo) - 2 * (line >= hi)
            if lo < line < hi:
                c = pts[:, axis]
                dissect(idx[c < line])
                dissect(idx[c > line])
                out.append(by_yx(idx[c == line]))
                return
        out.append(by_yx(idx))

    dissect(np.arange(g.shape[0]))
    return np.concatenate(out)


def entry_rows(A: sp.csr_matrix) -> np.ndarray:
    """The row of every stored entry of a CSR matrix, in storage order."""
    return np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))


class DirectFactor:
    """Reusable sparse LU factorization (SuperLU).

    `points`, integer grid coordinates (N, 2) of every unknown, orders the
    unknowns by `nested_dissection`, the rows whose diagonal is zero last
    in their leaf or separator, so SuperLU keeps that order and the
    diagonal pivots (DIAG_PIVOT_THRESH). A Dirichlet identity row (see
    constrain_matrix) couples with no other unknown, so it causes no fill
    wherever the dissection puts it. `_iidx` lists the unknowns in factor
    order; SuperLU gets A in that order, less its explicit zeros.

    With `single`, SuperLU gets A in float32, and `solve` refines in
    float64 against A (Moler 1967; Carson & Higham 2018):
    x <- x + LU^{-1}(b - A x) from x = 0 until the true residual is at
    float64's floor (LAPACK's test; see `_floor`), each right side scaled
    by a power of two into float32's range before the cast. A step that
    does not halve the residual (cond(A) u_32 near 1) factors A once more
    in float64, which then solves this and every later right side; only
    this fallback throws a triangular solve away. Otherwise the
    factor is float64, keeps no reference to A, and `solve` is one
    triangular solve, as for a preconditioner of matrices near A.
    `steps` counts the triangular solves of the last `solve`.
    """

    def __init__(self, A, points: np.ndarray, single: bool = False):
        A = as_csr(A)
        if A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"direct solve needs square, got {A.shape}")
        self.shape = A.shape
        self._iidx = nested_dissection(points, A.diagonal() == 0)
        self._A = A if single else None
        if single:
            # LAPACK dsgesv's test of a refined x: |b - A x| at most
            # sqrt(n) eps |A| |x| in the max norm (Buttari et al. 2008)
            self._floor = (math.sqrt(A.shape[0]) * np.finfo(float).eps
                           * abs(A).sum(axis=1).max())
        self._lu = self._factor(A, np.float32 if single else np.float64)

    def _factor(self, A: sp.csr_matrix, dtype) -> spla.SuperLU:
        where = np.empty(A.shape[0], dtype=A.indices.dtype)
        where[self._iidx] = np.arange(A.shape[0])
        S = A[self._iidx]   # rows in factor order; then the columns, unsorted
        S.indices = where[S.indices]
        S.has_sorted_indices = False
        S.eliminate_zeros()
        S = S.tocsc()   # sorted, and the ordered CSR is freed before SuperLU
        S = sp.csc_matrix((S.data.astype(dtype, copy=False), S.indices,
                           S.indptr), shape=S.shape)
        try:
            return spla.splu(S, permc_spec="NATURAL",
                             diag_pivot_thresh=DIAG_PIVOT_THRESH,
                             options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise Singular(str(exc)) from exc

    def _triangular(self, r: np.ndarray) -> np.ndarray:
        """LU^{-1} r: one pair of triangular solves in factor order."""
        x = np.empty_like(r)
        if self._A is None:
            x[self._iidx] = self._lu.solve(r[self._iidx])
            return x
        # exact scaling: the largest |r_i| goes into [0.5, 1)
        _, e = np.frexp(np.abs(r).max())
        x[self._iidx] = self._lu.solve(
            np.ldexp(r[self._iidx], -e).astype(np.float32))
        return np.ldexp(x, e, out=x)

    def _refine(self, b: np.ndarray) -> np.ndarray:
        x, r, res = np.zeros_like(b), b, np.linalg.norm(b)
        self.steps = 0
        while np.abs(r).max() > self._floor * np.abs(x).max():
            y = x + self._triangular(r)
            self.steps += 1
            r_y = b - self._A @ y
            res_y = np.linalg.norm(r_y)
            if not res_y <= res / 2:   # a NaN residual does not halve
                self._lu = None   # the float32 factor goes first
                self._lu = self._factor(self._A, np.float64)
                self._A = None
                self.steps += 1
                return self._triangular(b)
            x, r, res = y, r_y, res_y
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.shape[0]:
            raise DimensionMismatch(f"factor {self.shape} vs rhs {b.shape}")
        # before any triangular solve: refinement would take NaN for
        # converged, and inf would throw the float32 factor away
        if not np.all(np.isfinite(b)):
            raise Singular("non-finite right side of an LU solve")
        if self._A is None:
            x, self.steps = self._triangular(b), 1
        else:
            x = self._refine(b)
        if not np.all(np.isfinite(x)):
            raise Singular("non-finite solution from LU solve")
        return x

    # lets a factorization of a nearby matrix serve as a Krylov preconditioner
    def apply(self, r: np.ndarray) -> np.ndarray:
        return self.solve(r)


def true_residual(A, b: np.ndarray, x: np.ndarray) -> float:
    """||b - A x|| / ||b||; absolute when b = 0."""
    bnorm = np.linalg.norm(b)
    res = np.linalg.norm(b - A @ x)
    return float(res / bnorm if bnorm > 0 else res)


def constrain_matrix(A, dofs: np.ndarray) -> sp.csr_matrix:
    """Zero the constrained rows and columns of a square A, unit diagonal
    there: new data on A's own canonical pattern, whose stored zeros stay.
    Every constrained diagonal must be in that pattern."""
    A = as_csr(A)
    fixed = np.zeros(A.shape[0], dtype=bool)
    fixed[dofs] = True
    rows = entry_rows(A)
    data = np.where(fixed[rows] | fixed[A.indices], 0.0, A.data)
    diagonal = fixed[rows] & (A.indices == rows)
    if np.count_nonzero(diagonal) != np.count_nonzero(fixed):
        raise DimensionMismatch("a constrained diagonal is not stored")
    data[diagonal] = 1.0
    # its own index arrays, so that A can be freed whole
    return sp.csr_matrix((data, A.indices.copy(), A.indptr.copy()),
                         shape=A.shape)


def constrain_rhs(A, b: np.ndarray, dofs: np.ndarray,
                  values: np.ndarray) -> np.ndarray:
    """Right side matching constrain_matrix: moves A x0 to the right side so
    the eliminated system stays symmetric, then pins the constrained values."""
    n = b.shape[0]
    x0 = np.zeros(n)
    x0[dofs] = values
    out = b - as_csr(A) @ x0
    out[dofs] = values
    return out


def constrain_dirichlet(A, b, dofs, values):
    """With b = 0 the right side is the lift -A x0 (see coupled.System)."""
    return constrain_matrix(A, dofs), constrain_rhs(A, b, dofs, values)
