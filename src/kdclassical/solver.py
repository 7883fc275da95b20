"""Least squares over the probability simplex.

Solves  minimize ||A x - b||_2  subject to  x >= 0, sum(x) = 1  with a
primal active-set iteration (Lawson & Hanson, *Solving Least Squares
Problems*, 1974): on the current free set the equality-constrained normal
equations are solved through their KKT system, blocking variables are
dropped along feasible line steps, and variables enter by the most negative
reduced cost. Each KKT system is solved by LU factorization; when LU finds
it singular or returns non-finite values, the step falls back to the
minimum-norm least-squares solution. Termination is by the KKT optimality
test, and the returned distance is recomputed from ``A x - b``, so it is
optimal up to linear-algebra roundoff. Deterministic for a fixed column
order; re-entrant (no shared state).
"""

from __future__ import annotations

import numpy as np

from .exceptions import SolverDidNotConverge

_FEAS_TOL = 1e-12
_DUAL_TOL = 1e-11


def simplex_least_squares(
    a: np.ndarray, b: np.ndarray, max_iter: int | None = None, gram: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Return (x, distance) for the simplex-constrained least-squares problem.

    ``gram`` is ``a.T @ a`` when the caller already holds it, as it does when
    many right-hand sides share one ``a``; it is computed here otherwise.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    n = a.shape[1]
    if n == 0:
        raise ValueError("need at least one column")
    if max_iter is None:
        max_iter = 10 * n + 100

    if gram is None:
        gram = a.T @ a
    h = a.T @ b

    # Best single vertex is a feasible start.
    start = int(np.argmin(gram.diagonal() - 2.0 * h))
    x = np.zeros(n)
    x[start] = 1.0
    free = [start]

    for _ in range(max_iter):
        z, nu = _solve_free(gram, h, free)
        inner = 0
        while z.min() < -_FEAS_TOL:
            # Step toward z until the first free variable hits zero.
            xf = x[free]
            neg = z < -_FEAS_TOL
            ratios = xf[neg] / (xf[neg] - z[neg])
            alpha = float(ratios.min())
            xf = xf + alpha * (z - xf)
            xf[np.where(neg)[0][np.argmin(ratios)]] = 0.0
            x[:] = 0.0
            x[free] = np.maximum(xf, 0.0)
            free = [j for j, v in zip(free, xf) if v > 0.0]
            z, nu = _solve_free(gram, h, free)
            inner += 1
            if inner > n + 10:
                raise SolverDidNotConverge("inner loop exceeded iteration cap")
        x[:] = 0.0
        x[free] = np.maximum(z, 0.0)

        # KKT convention from _solve_free is grad_free = -nu, so the
        # multiplier of a bound-active variable is grad_k + nu.
        grad = gram @ x - h
        reduced = grad + nu
        reduced[free] = 0.0
        entering = int(np.argmin(reduced))
        if reduced[entering] >= -_DUAL_TOL * max(1.0, float(np.abs(grad).max())):
            distance = float(np.linalg.norm(a @ x - b))
            return x, distance
        free = sorted(free + [entering])

    raise SolverDidNotConverge(f"no optimality certificate after {max_iter} iterations")


def _solve_free(gram: np.ndarray, h: np.ndarray, free: list[int]) -> tuple[np.ndarray, float]:
    """Equality-constrained minimizer on the free set via the KKT system."""
    k = len(free)
    idx = np.asarray(free, dtype=np.intp)
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = gram.take(idx, axis=0).take(idx, axis=1)
    kkt[k, k] = 0.0
    rhs = np.append(h.take(idx), 1.0)
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol = None
    if sol is None or not np.isfinite(sol).all():
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[:k], float(sol[k])
