"""Least squares over the probability simplex.

Solves  minimize ||A x - b||_2  subject to  x >= 0, sum(x) = 1  from the
Gram G = A^T A and h = A^T b alone, so a caller never needs A itself: the
objective is x.G x - 2 h.x + ||b||^2. The iteration is a
primal active-set iteration (Lawson & Hanson, *Solving Least Squares
Problems*, 1974): on the current free set F the equality-constrained normal
equations are solved through their KKT system, blocking variables are
dropped along feasible line steps, and variables enter by the most negative
reduced cost.

The iteration keeps the inverse Cholesky factor R = L^-1 of the free-set
Gram G_F = L L^T, with u = R 1 and w = R h_F (h = A^T b), in one buffer
whose row i is [u_i, w_i, R_i.], and u.u and u.w as running sums. The KKT
step is then nu = (u.w - 1) / (u.u) and z = R^T (w - nu u), one product
with R and no factorization. An entering column appends one row in O(k^2)
for k free columns, from l = R G[F, j] and the one product l [u, w, R]. A
dropped column (about one per solve on the probe workloads, against up to
137 entering ones at d = 30) rebuilds R, u.u and u.w from a Cholesky
factorization of the reduced free set. When a pivot is not safely positive
(a column nearly in the span of the free ones) the factor is marked
invalid until the next rebuild, and the step falls back to the
minimum-norm least-squares solution of the bordered KKT matrix, singular
or not; that fallback is also taken when the factor gives a non-finite
step. Termination is by the KKT optimality test; its scale max |grad| is
computed only when the most negative reduced cost does not already fail
the test against a bound B >= max |grad| fixed per solve. The caller
computes the distance ||A x - b|| from the returned x in its own
coordinates, since x.G x - 2 h.x + ||b||^2 loses the small distances to
cancellation.

A caller that knows pinv(A) b in closed form (the Weyl min-norm step of a
family-built :class:`~kdclassical.geometry.HullSystem`) passes it as
``candidate``; it is the first KKT step, with every column free and
nu = 0, and ends the solve when it passes the KKT test. Otherwise the
active set runs from the best vertex, unchanged. Deterministic for a fixed
column order; re-entrant (no shared state). numpy only.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import SolverDidNotConverge

_FEAS_TOL = 1e-12  # step entries sum to one, so their roundoff is a few ulps times n, far below this
_DUAL_TOL = 1e-11  # relative to max |grad|; a reduced cost sums n Gram products, so it rounds more than a step entry
# The Cholesky pivot delta^2 = G_jj - l.l of an entering column j counts as
# safely positive when delta^2 > _PIVOT_TOL * G_jj, far above the roundoff
# of that difference; below it the factor is not used. On the probe
# problems every pivot stays above 0.04 G_jj.
_PIVOT_TOL = 1e-10


def simplex_least_squares(
    gram: np.ndarray,
    h: np.ndarray,
    max_iter: int | None = None,
    candidate: np.ndarray | None = None,
) -> np.ndarray:
    """Return the minimizer x of ||A x - b|| over the simplex, given G = A^T A and h = A^T b.

    ``candidate`` is the caller's min-norm least-squares solution over all
    columns, pinv(A) @ b, when it has one in closed form. It is the first
    KKT step, with every column free and nu = 0, and it is returned when it
    is finite, feasible (entries >= -_FEAS_TOL, sum 1) and stationary on
    every column: then A x is the projection of b onto the span of the
    columns, so no point of the simplex is closer. Otherwise the active set
    starts from the best vertex as usual.
    """
    gram = np.asarray(gram, dtype=float)
    h = np.asarray(h, dtype=float).reshape(-1)
    n = h.size
    if n == 0:
        raise ValueError("need at least one column")
    if max_iter is None:
        max_iter = 10 * n + 100

    if candidate is not None:
        z, nu = _solve_free(gram, h, np.arange(n), candidate=candidate)
        if _feasible_and_stationary(gram, h, z, nu):
            return np.maximum(z, 0.0)

    # Best single vertex is a feasible start. x is never re-zeroed: each KKT
    # step rewrites it on the whole free set, and a dropped column leaves at 0.
    start = int(np.argmin(gram.diagonal() - 2.0 * h))
    x = np.zeros(n)
    x[start] = 1.0
    factor = _FreeSetFactor(gram, h)
    factor.append(start)
    cutoff = -_DUAL_TOL * max(1.0, _grad_bound(gram, h))
    grad, reduced = np.empty(n), np.empty(n)

    for _ in range(max_iter):
        z, nu = _solve_free(gram, h, factor.free, factor)
        inner = 0
        while z.min() < -_FEAS_TOL:
            # Step toward z until the first free variable hits zero.
            free = factor.free
            xf = x[free]
            neg = z < -_FEAS_TOL
            ratios = xf[neg] / (xf[neg] - z[neg])
            alpha = float(ratios.min())
            xf = xf + alpha * (z - xf)
            xf[np.where(neg)[0][np.argmin(ratios)]] = 0.0
            x[free] = np.maximum(xf, 0.0)
            factor.rebuild(free[xf > 0.0])
            z, nu = _solve_free(gram, h, factor.free, factor)
            inner += 1
            if inner > n + 10:
                raise SolverDidNotConverge("inner loop exceeded iteration cap")
        free = factor.free
        x[free] = np.maximum(z, 0.0)

        # KKT convention from _solve_free is grad_free = -nu, so the
        # multiplier of a bound-active variable is grad_k + nu.
        np.subtract(np.matmul(gram, x, out=grad), h, out=grad)
        np.add(grad, nu, out=reduced)
        reduced[free] = 0.0
        entering = int(reduced.argmin())
        cost = reduced[entering]
        # cutoff <= the test's own threshold, so below it the test fails.
        if cost >= cutoff and cost >= -_DUAL_TOL * max(1.0, float(np.abs(grad).max())):
            return x
        factor.append(entering)

    raise SolverDidNotConverge(f"no optimality certificate after {max_iter} iterations")


def _grad_bound(gram: np.ndarray, h: np.ndarray) -> float:
    """B >= max |G x - h|, roundoff included, for x >= 0 with sum(x) <= 1.5; the loop's x sum to one."""
    return 2.0 * (float(np.abs(gram).max()) + float(np.abs(h).max()))


def _feasible_and_stationary(gram: np.ndarray, h: np.ndarray, z: np.ndarray, nu: float) -> bool:
    """The KKT test of a step with every column free: z feasible, grad + nu = 0 everywhere."""
    if not (np.isfinite(z).all() and z.min() >= -_FEAS_TOL and abs(z.sum() - 1.0) <= _FEAS_TOL * z.size):
        return False
    grad = gram @ z - h
    return float(np.abs(grad + nu).max()) <= _DUAL_TOL * max(1.0, float(np.abs(grad).max()))


class _FreeSetFactor:
    """The free set F in entry order, and the inverse Cholesky factor of G_F.

    Row i of the buffer ``b`` is [u_i, w_i, R_i.]: ``r[:k, :k]`` is R = L^-1
    for G_F = L L^T (lower triangular), ``u[:k]`` is R 1 and ``w[:k]`` is
    R h_F, all views of ``b``, which is sized for every column. ``uu`` and
    ``uw`` are u.u and u.w, summed as rows are appended and recomputed by
    :meth:`rebuild`. ``valid`` is False while some pivot of F was not
    safely positive; the free set is still tracked then, and the next
    :meth:`rebuild` tries again.
    """

    def __init__(self, gram: np.ndarray, h: np.ndarray):
        n = h.size
        self.gram, self.h = gram, h
        self.cols = np.empty(n, dtype=np.intp)
        self.b = np.zeros((n, n + 2))
        self.u, self.w, self.r = self.b[:, 0], self.b[:, 1], self.b[:, 2:]
        self.uu = self.uw = 0.0
        self.k = 0
        self.valid = True

    @property
    def free(self) -> np.ndarray:
        return self.cols[: self.k]

    def append(self, j: int) -> None:
        """Add column j to F: one new row of b from l = R G[F, j], delta^2 = G_jj - l.l and l [u, w, R]."""
        k = self.k
        self.k = k + 1
        self.cols[k] = j
        if not self.valid:
            return
        l = self.r[:k, :k] @ self.gram[j].take(self.cols[:k])
        g_jj = self.gram[j, j]
        pivot = g_jj - l @ l
        if not pivot > _PIVOT_TOL * g_jj:
            self.valid = False
            return
        delta = math.sqrt(pivot)
        row = l @ self.b[:k, : k + 2]
        row[0] -= 1.0
        row[1] -= self.h[j]
        row /= -delta
        self.b[k, : k + 2] = row
        self.b[k, k + 2] = 1.0 / delta
        u_k, w_k = float(row[0]), float(row[1])
        self.uu += u_k * u_k
        self.uw += u_k * w_k

    def rebuild(self, cols: np.ndarray) -> None:
        """Make F = cols and refactor G_F from scratch."""
        k = len(cols)
        self.k = k
        self.cols[:k] = cols
        g = self.gram.take(cols, axis=0).take(cols, axis=1)
        try:
            low = np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            self.valid = False
            return
        self.valid = bool((low.diagonal() ** 2 > _PIVOT_TOL * g.diagonal()).all())
        if self.valid:
            r = np.tril(np.linalg.inv(low))
            self.r[:k, :k] = r
            u = self.u[:k] = r.sum(axis=1)
            w = self.w[:k] = r @ self.h.take(cols)
            self.uu, self.uw = float(u @ u), float(u @ w)

    def solve(self) -> tuple[np.ndarray, float]:
        """The KKT step (z, nu) on F: nu = (u.w - 1) / (u.u), z = R^T (w - nu u)."""
        k = self.k
        nu = (self.uw - 1.0) / self.uu
        return (self.w[:k] - nu * self.u[:k]) @ self.r[:k, :k], nu


def _solve_free(
    gram: np.ndarray,
    h: np.ndarray,
    free,
    factor: _FreeSetFactor | None = None,
    candidate: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Equality-constrained minimizer on the free set via the KKT system.

    ``candidate``, given with every column free, is the caller's closed-form
    min-norm solution and is the step as it stands, with nu = 0; the solver
    checks it before using it. ``factor`` is the solver's factor of this
    free set; when it is valid and gives a finite step, that step is
    returned. Otherwise the bordered KKT matrix is solved by least squares,
    which gives its minimum-norm solution when it is singular.
    """
    if candidate is not None:
        return np.asarray(candidate, dtype=float), 0.0
    if factor is not None and factor.valid and factor.k == len(free):
        z, nu = factor.solve()
        if math.isfinite(nu) and math.isfinite(z.sum()):  # a sum is finite only if every entry is
            return z, nu
    k = len(free)
    idx = np.asarray(free, dtype=np.intp)
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = gram.take(idx, axis=0).take(idx, axis=1)
    kkt[k, k] = 0.0
    sol, *_ = np.linalg.lstsq(kkt, np.append(h.take(idx), 1.0), rcond=None)
    return sol[:k], float(sol[k])
