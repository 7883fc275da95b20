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
Gram G_F = L L^T, with u = R 1 and w = R h_F (h = A^T b). The KKT step is
then nu = (u.w - 1) / (u.u) and z = R^T (w - nu u), two products with R and
no factorization. An entering column appends one row to R in O(k^2) for k
free columns. A dropped column (about one per solve on the probe
workloads, against up to 137 entering ones at d = 30) rebuilds R from a
Cholesky factorization of the reduced free set. When a pivot is not
safely positive (a column nearly in the span of the free ones) the factor
is marked invalid until the next rebuild, and the step falls back to the
minimum-norm least-squares solution of the bordered KKT matrix, singular
or not; that fallback is also taken when the factor gives a non-finite
step. Termination is by the KKT optimality test. The caller computes the
distance ||A x - b|| from the returned x in its own coordinates, since
x.G x - 2 h.x + ||b||^2 loses the small distances to cancellation.

A caller that knows pinv(A) b in closed form (the Weyl min-norm step of a
family-built :class:`~kdclassical.geometry.HullSystem`) passes it as
``candidate``; it is the first KKT step, with every column free and
nu = 0, and ends the solve when it passes the KKT test. Otherwise the
active set runs from the best vertex, unchanged. Deterministic for a fixed
column order; re-entrant (no shared state). numpy only.
"""

from __future__ import annotations

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

    # Best single vertex is a feasible start.
    start = int(np.argmin(gram.diagonal() - 2.0 * h))
    x = np.zeros(n)
    x[start] = 1.0
    factor = _FreeSetFactor(gram, h)
    factor.append(start)

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
            x[:] = 0.0
            x[free] = np.maximum(xf, 0.0)
            factor.rebuild(free[xf > 0.0])
            z, nu = _solve_free(gram, h, factor.free, factor)
            inner += 1
            if inner > n + 10:
                raise SolverDidNotConverge("inner loop exceeded iteration cap")
        free = factor.free
        x[:] = 0.0
        x[free] = np.maximum(z, 0.0)

        # KKT convention from _solve_free is grad_free = -nu, so the
        # multiplier of a bound-active variable is grad_k + nu.
        grad = gram @ x - h
        reduced = grad + nu
        reduced[free] = 0.0
        entering = int(np.argmin(reduced))
        if reduced[entering] >= -_DUAL_TOL * max(1.0, float(np.abs(grad).max())):
            return x
        factor.append(entering)

    raise SolverDidNotConverge(f"no optimality certificate after {max_iter} iterations")


def _feasible_and_stationary(gram: np.ndarray, h: np.ndarray, z: np.ndarray, nu: float) -> bool:
    """The KKT test of a step with every column free: z feasible, grad + nu = 0 everywhere."""
    if not (np.isfinite(z).all() and z.min() >= -_FEAS_TOL and abs(z.sum() - 1.0) <= _FEAS_TOL * z.size):
        return False
    grad = gram @ z - h
    return float(np.abs(grad + nu).max()) <= _DUAL_TOL * max(1.0, float(np.abs(grad).max()))


class _FreeSetFactor:
    """The free set F in entry order, and the inverse Cholesky factor of G_F.

    ``r[:k, :k]`` is R = L^-1 for G_F = L L^T (lower triangular), ``u[:k]``
    is R 1 and ``w[:k]`` is R h_F; all live in buffers sized for every
    column. ``valid`` is False while some pivot of F was not safely
    positive; the free set is still tracked then, and the next
    :meth:`rebuild` tries again.
    """

    def __init__(self, gram: np.ndarray, h: np.ndarray):
        n = h.size
        self.gram, self.h = gram, h
        self.cols = np.empty(n, dtype=np.intp)
        self.r = np.zeros((n, n))
        self.u = np.empty(n)
        self.w = np.empty(n)
        self.k = 0
        self.valid = True

    @property
    def free(self) -> np.ndarray:
        return self.cols[: self.k]

    def append(self, j: int) -> None:
        """Add column j to F: one new row of R from l = R G[F, j] and delta^2 = G_jj - l.l."""
        k = self.k
        self.k = k + 1
        self.cols[k] = j
        if not self.valid:
            return
        r = self.r[:k, :k]
        l = r @ self.gram[j].take(self.cols[:k])
        g_jj = self.gram[j, j]
        pivot = g_jj - l @ l
        if not pivot > _PIVOT_TOL * g_jj:
            self.valid = False
            return
        delta = np.sqrt(pivot)
        self.r[k, :k] = (l @ r) / -delta
        self.r[k, k] = 1.0 / delta
        self.u[k] = (1.0 - l @ self.u[:k]) / delta
        self.w[k] = (self.h[j] - l @ self.w[:k]) / delta

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
            self.u[:k] = r.sum(axis=1)
            self.w[:k] = r @ self.h.take(cols)

    def solve(self) -> tuple[np.ndarray, float]:
        """The KKT step (z, nu) on F: nu = (u.w - 1) / (u.u), z = R^T (w - nu u)."""
        k = self.k
        u, w = self.u[:k], self.w[:k]
        nu = (u @ w - 1.0) / (u @ u)
        return (w - nu * u) @ self.r[:k, :k], float(nu)


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
        if np.isfinite(z).all() and np.isfinite(nu):
            return z, nu
    k = len(free)
    idx = np.asarray(free, dtype=np.intp)
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = gram.take(idx, axis=0).take(idx, axis=1)
    kkt[k, k] = 0.0
    sol, *_ = np.linalg.lstsq(kkt, np.append(h.take(idx), 1.0), rcond=None)
    return sol[:k], float(sol[k])
