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
active set runs from the best vertex, unchanged.

Every call solves h as an (m, n) stack of right-hand sides against one
Gram, a 1-D h (one query) as a stack of one. The candidate step is checked
for all rows at once. When at least :data:`_MIN_STACK` rows are left
undecided they share one active-set loop, each iteration making one
stacked KKT step, gradient, entering choice and append, so numpy's
per-call cost is paid once per iteration instead of once per row; fewer
rows run the single loop one by one. A stacked row keeps its factor in the
buffer layout above and rebuilds its own on a drop, and every product is
made per row, or per run of rows with free sets of one size, so a row
rounds exactly as it does alone and gets the same x, path and verdict.
The failure convention of every hull query: a row that does not converge
is NaN in a stack, without touching the others (a None verdict from
:func:`~kdclassical.geometry.hull_membership`), and a 1-D h raises
SolverDidNotConverge.
Deterministic for a fixed column order; re-entrant (no shared state).
numpy only.
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
# An iteration of the stacked loop costs a fixed number of numpy calls,
# several times those of the single loop, and each row's drops still cost
# what they cost alone. Timed on Ginibre and perturbation states at d = 6,
# 9, 12 and 16, the stacked loop beat the single loop run row by row from
# about 6 undecided rows at d = 6 and 9 and from 8 at d = 16 (from 12 to 16
# on Ginibre states at d = 12, whose rows drop three columns each); below
# this many undecided rows a stack runs the single loop row by row.
_MIN_STACK = 8


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

    ``h`` is one right-hand side or an (m, n) stack of them, with
    ``candidate`` of the same shape (a row of NaN: none for that row), and
    x has the shape of h. A 1-D h is a stack of one. The rows the candidate
    leaves undecided run :func:`_active_set_stack` or :func:`_active_set`
    as the module docstring says, and a row that does not converge is NaN,
    or raises SolverDidNotConverge for a 1-D h.
    """
    gram = np.asarray(gram, dtype=float)
    h = np.asarray(h, dtype=float)
    n = h.shape[-1] if h.ndim else 0
    if n == 0:
        raise ValueError("need at least one column")
    if h.ndim > 2:
        raise ValueError(f"h must be one right-hand side or a stack of them, got shape {h.shape}")
    if max_iter is None:
        max_iter = 10 * n + 100
    rows = h.reshape(-1, n)
    if candidate is None:
        x, todo = np.empty(rows.shape), np.arange(len(rows))
    else:
        z, _ = _solve_free(gram, rows, range(n), candidate=np.asarray(candidate, dtype=float).reshape(rows.shape))
        x, todo = np.maximum(z, 0.0), (~_feasible_and_stationary_rows(gram, rows, z)).nonzero()[0]
    # Every row left to do is solved, or made NaN when it does not converge.
    if len(todo) >= _MIN_STACK:
        _active_set_stack(gram, rows, todo, max_iter, x)
    else:
        for r in todo:
            try:
                x[r] = _active_set(gram, rows[r], max_iter)
            except SolverDidNotConverge:
                if h.ndim == 1:
                    raise
                x[r] = np.nan
    return x if h.ndim == 2 else x[0]


def _active_set(gram: np.ndarray, h: np.ndarray, max_iter: int) -> np.ndarray:
    """The active-set loop for one h, from the best vertex."""
    n = h.size
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
        if z.min() < -_FEAS_TOL:
            z, nu = _drop_blocking(gram, h, x, factor, z, nu)
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


def _drop_blocking(gram, h, x, factor: _FreeSetFactor, z: np.ndarray, nu: float) -> tuple[np.ndarray, float]:
    """While the KKT step z has a negative entry, step x toward it until the first free variable hits zero, drop it and step again."""
    inner = 0
    while z.min() < -_FEAS_TOL:
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
        if inner > len(factor.cols) + 10:
            raise SolverDidNotConverge("inner loop exceeded iteration cap")
    return z, nu


def _active_set_stack(gram: np.ndarray, h: np.ndarray, todo: np.ndarray, max_iter: int, out: np.ndarray) -> None:
    """The loop of :func:`_active_set` for the rows ``todo`` of h at once, writing each x into ``out``.

    Each iteration makes one stacked KKT step, gradient, entering choice and
    append, the step and the append with one product per run of rows that
    share a free-set size (:class:`_FreeSetStack`), so that every row rounds
    exactly as the single loop would round it. A row whose step has a
    negative entry drops its blocking columns alone, rebuilding its own
    factor (:func:`_drop_blocking`), and a row leaves the stack when it
    passes the KKT test. A row fails, and is NaN in ``out``, when its
    drops exceed their cap or it is still in the stack after ``max_iter``
    iterations.
    """
    n = gram.shape[0]
    out[todo] = np.nan
    stack = _FreeSetStack(gram, h[todo], todo)
    start = np.argmin(gram.diagonal() - 2.0 * stack.h, axis=1)
    stack.x[np.arange(len(todo)), start] = 1.0
    stack.append(start)
    # Per row, as in the single loop: below the cutoff the test fails.
    cutoff = -_DUAL_TOL * np.maximum(1.0, _grad_bound(gram, stack.h))

    for _ in range(max_iter):
        z, nu = _solve_free(gram, stack.h, stack.free, stack)
        failed = []
        dropping = np.flatnonzero(z.min(axis=1) < -_FEAS_TOL)
        for r in dropping:
            try:
                z[r], nu[r] = stack.drop_blocking(r, z[r], nu[r])
            except SolverDidNotConverge:
                failed.append(r)
        rows, free = np.arange(len(nu)), stack.cols[:, : z.shape[1]]
        stack.x[rows[:, None], free] = np.maximum(z, 0.0)

        # One matrix-vector product per row, as in the single loop.
        grad = np.matmul(gram, stack.x[:, :n, None])[:, :, 0]
        grad -= stack.h
        reduced = np.zeros(stack.x.shape)
        np.add(grad, nu[:, None], out=reduced[:, :n])
        reduced[rows[:, None], free] = 0.0
        entering = reduced.argmin(axis=1)
        cost = reduced[rows, entering]
        done = cost >= cutoff
        if done.any():
            done &= cost >= -_DUAL_TOL * np.maximum(1.0, np.abs(grad).max(axis=1))
            done[failed] = False
            out[stack.ids[done]] = stack.x[done, :n]
        if dropping.size or done.any():
            done[failed] = True
            rows = np.flatnonzero(~done)
            if not rows.size:
                return
            if dropping.size:
                rows = rows[np.argsort(-stack.k[rows], kind="stable")]
            stack.keep(rows)
            cutoff, entering = cutoff[rows], entering[rows]
        stack.append(entering)


def _grad_bound(gram: np.ndarray, h: np.ndarray):
    """B >= max |G x - h|, roundoff included, for x >= 0 with sum(x) <= 1.5; the loop's x sum to one. One per row of a stack."""
    return 2.0 * (float(np.abs(gram).max()) + np.abs(h).max(axis=-1))


def _feasible_and_stationary_rows(gram: np.ndarray, h: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The KKT test of each row of a stack of steps with every column free and nu = 0: z feasible, grad = 0 everywhere.

    A NaN or infinite entry fails the sign or the sum test, and with nu = 0
    max |grad + nu| <= _DUAL_TOL max(1, max |grad|) reads max |grad| <= _DUAL_TOL.
    """
    feasible = (z.min(axis=1) >= -_FEAS_TOL) & (np.abs(z.sum(axis=1) - 1.0) <= _FEAS_TOL * z.shape[1])
    if not feasible.any():
        return feasible
    grad = np.matmul(gram, z[:, :, None])[:, :, 0] - h  # per row, as alone
    return feasible & (np.abs(grad).max(axis=1) <= _DUAL_TOL)


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

    def __init__(self, gram: np.ndarray, h: np.ndarray, b: np.ndarray | None = None, cols: np.ndarray | None = None):
        n = h.size
        self.gram, self.h = gram, h
        self.cols = np.empty(n, dtype=np.intp) if cols is None else cols
        self.b = np.zeros((n, n + 2)) if b is None else b
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


class _FreeSetStack:
    """The free sets and factors of m rows of h at once, each in :class:`_FreeSetFactor`'s row layout.

    ``b[r]`` is row r's buffer [u, w, R], ``cols[r, :k[r]]`` its free set in
    entry order, ``uu[r]``, ``uw[r]`` and ``valid[r]`` its scalars,
    ``x[r, :n]`` its point and ``ids[r]`` its row in the caller's stack.
    Past k[r], ``cols[r]`` holds n, a sink column of ``x`` that stays zero.
    The rows are kept sorted by k, largest first, and ``runs`` lists the
    (start, stop, k) of each run of rows with equal k: the step and the
    append make their products run by run, at the run's own k. Rows leave
    or are reordered by :meth:`keep`.
    """

    _ROWS = ("h", "x", "b", "cols", "k", "uu", "uw", "valid", "ids")

    def __init__(self, gram: np.ndarray, h: np.ndarray, ids: np.ndarray):
        m, n = h.shape
        self.gram, self.h, self.ids = gram, h, ids
        self.x = np.zeros((m, n + 1))
        self.b = np.zeros((m, n, n + 2))
        self.cols = np.full((m, n), n, dtype=np.intp)
        self.k = np.zeros(m, dtype=np.intp)
        self.uu, self.uw = np.zeros(m), np.zeros(m)
        self.valid = np.ones(m, dtype=bool)
        self.runs = [(0, m, 0)]

    @property
    def free(self) -> np.ndarray:
        """The (K, m) free columns, position first, K the largest k: free[i] is the i-th of every row, n past its k."""
        return self.cols[:, : self.runs[0][2]].T

    def keep(self, rows: np.ndarray) -> None:
        """Keep the given rows, in the given order, which must be sorted by k, largest first."""
        for name in self._ROWS:
            setattr(self, name, getattr(self, name)[rows])
        stops = [*(np.flatnonzero(np.diff(self.k)) + 1).tolist(), len(rows)]
        self.runs = [(start, stop, int(self.k[start])) for start, stop in zip([0, *stops], stops)]

    def solve(self) -> tuple[np.ndarray, np.ndarray]:
        """The KKT steps (z, nu) of every row, z (m, K) zero past k[r]; nu is NaN where the factor is invalid."""
        nu = np.divide(self.uw - 1.0, self.uu, out=np.full(len(self.uu), np.nan), where=self.valid)
        width = self.runs[0][2]
        v = self.b[:, :width, 1] - nu[:, None] * self.b[:, :width, 0]
        if len(self.runs) == 1:
            return np.matmul(v[:, None, :], self.b[:, :width, 2 : width + 2])[:, 0], nu
        z = np.zeros((len(nu), width))
        for start, stop, k in self.runs:
            z[start:stop, :k] = np.matmul(v[start:stop, None, :k], self.b[start:stop, :k, 2 : k + 2])[:, 0]
        return z, nu

    def append(self, j: np.ndarray) -> None:
        """Add column j[r] to row r, for every row: :meth:`_FreeSetFactor.append`, its products run by run."""
        everyone, k, width = np.arange(len(j)), self.k, self.runs[0][2]
        ll, row = np.empty(len(j)), np.zeros((len(j), width + 2))
        for start, stop, run_k in self.runs:
            b = self.b[start:stop, :run_k, : run_k + 2]
            l = np.matmul(b[:, :, 2:], self.gram[j[start:stop, None], self.cols[start:stop, :run_k]][:, :, None])
            ll[start:stop] = np.matmul(l.transpose(0, 2, 1), l)[:, 0, 0]
            row[start:stop, : run_k + 2] = np.matmul(l.transpose(0, 2, 1), b)[:, 0]
        g_jj = self.gram[j, j]
        pivot = g_jj - ll
        self.valid &= pivot > _PIVOT_TOL * g_jj
        delta = np.sqrt(np.where(self.valid, pivot, 1.0))
        row[:, 0] -= 1.0
        row[:, 1] -= self.h[everyone, j]
        row /= -delta[:, None]
        self.b[everyone, k, : width + 2] = row  # zero past each row's own k + 2
        self.b[everyone, k, k + 2] = 1.0 / delta
        self.uu += row[:, 0] * row[:, 0]
        self.uw += row[:, 0] * row[:, 1]
        self.cols[everyone, k] = j
        self.k = k + 1
        self.runs = [(start, stop, run_k + 1) for start, stop, run_k in self.runs]

    def drop_blocking(self, r: int, z: np.ndarray, nu: float) -> tuple[np.ndarray, float]:
        """:func:`_drop_blocking` on row r alone, through a :class:`_FreeSetFactor` over views of its buffers; z comes back padded."""
        n = len(self.gram)
        factor = _FreeSetFactor(self.gram, self.h[r], b=self.b[r], cols=self.cols[r])
        factor.k, factor.uu, factor.uw, factor.valid = int(self.k[r]), float(self.uu[r]), float(self.uw[r]), bool(self.valid[r])
        step, nu = _drop_blocking(self.gram, self.h[r], self.x[r, :n], factor, z[: factor.k], nu)
        k = self.k[r] = factor.k
        self.uu[r], self.uw[r], self.valid[r] = factor.uu, factor.uw, factor.valid
        self.cols[r, k:] = n
        z = np.zeros_like(z)
        z[:k] = step
        return z, nu


def _solve_free(
    gram: np.ndarray,
    h: np.ndarray,
    free,
    factor: _FreeSetFactor | _FreeSetStack | None = None,
    candidate: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Equality-constrained minimizer on the free set via the KKT system.

    ``candidate``, given with every column free, is the caller's closed-form
    min-norm solution and is the step as it stands, with nu = 0; the solver
    checks it before using it. ``factor`` is the solver's factor of this
    free set; when it is valid and gives a finite step, that step is
    returned. Otherwise the bordered KKT matrix is solved by least squares,
    which gives its minimum-norm solution when it is singular.

    With a :class:`_FreeSetStack`, h holds its rows and ``free`` is its
    (K, m) :attr:`~_FreeSetStack.free`; the step is (m, K), zero past each
    row's free set, and nu has one entry per row, each row falling back on
    its own.
    """
    if candidate is not None:
        return np.asarray(candidate, dtype=float), 0.0
    if isinstance(factor, _FreeSetStack):
        z, nu = factor.solve()
        if not math.isfinite(nu.sum() + z.sum()):
            for r in np.flatnonzero(~np.isfinite(nu + z.sum(axis=1))):
                k = factor.k[r]
                z[r, :k], nu[r] = _lstsq_step(gram, h[r], free[:k, r])
        return z, nu
    if factor is not None and factor.valid and factor.k == len(free):
        z, nu = factor.solve()
        if math.isfinite(nu) and math.isfinite(z.sum()):  # a sum is finite only if every entry is
            return z, nu
    return _lstsq_step(gram, h, free)


def _lstsq_step(gram: np.ndarray, h: np.ndarray, free) -> tuple[np.ndarray, float]:
    """The KKT step on ``free`` from the bordered KKT matrix, by least squares."""
    k = len(free)
    idx = np.asarray(free, dtype=np.intp)
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = gram.take(idx, axis=0).take(idx, axis=1)
    kkt[k, k] = 0.0
    sol, *_ = np.linalg.lstsq(kkt, np.append(h.take(idx), 1.0), rcond=None)
    return sol[:k], float(sol[k])
