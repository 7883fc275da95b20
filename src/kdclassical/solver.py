"""Least squares over the probability simplex.

Solves  minimize ||A x - b||_2  subject to  x >= 0, sum(x) = 1  from the
Gram G = A^T A and h = A^T b alone, so a caller never needs A itself: the
objective is x.G x - 2 h.x + ||b||^2. The iteration is a primal active-set
iteration (Lawson & Hanson, *Solving Least Squares Problems*, 1974): on the
current free set F the equality-constrained normal equations are solved
through their KKT system, blocking variables are dropped along feasible
line steps, and variables enter by reduced cost.

Ties are broken by the smallest subscript (Bland, *Math. Oper. Res.* 2,
1977), so that roundoff cannot re-route the path: the families' symmetry
makes reduced costs tie to the last bit. The entering column is the lowest
index whose reduced cost is within _TIE_BAND max(1, B) of the most
negative one (B the gradient bound below), and a line step zeroes every
blocking variable whose ratio is within a relative _TIE_BAND of the
smallest; the termination test still reads the minimum.

The iteration keeps the inverse Cholesky factor R = L^-1 of the free-set
Gram G_F = L L^T, with u = R 1 and w = R h_F (h = A^T b), in one buffer
whose row i is [u_i, w_i, R_i.], and u.u and u.w as running sums. The KKT
step is then nu = (u.w - 1) / (u.u) and z = R^T (w - nu u), one product
with R and no factorization. An entering column appends one row in O(k^2)
for k free columns, from l = R G[F, j] and the one product l [u, w, R]. A
dropped column is removed in O(k^2) too (Gill, Golub, Murray & Saunders,
*Math. Comp.* 28, 1974): a chain of Givens rotations of the rows below it,
in closed form, gathers its column of R into one row, and that row and
column are deleted. When a pivot is not safely positive (a column nearly
in the span of the free ones) the factor is marked invalid until the next
drop rebuilds it by appending, column by column, and the step falls back
to the minimum-norm least-squares solution of the bordered KKT matrix,
singular or not; that fallback is also taken when the factor gives a
non-finite step. Termination is by the KKT optimality test; its scale
max |grad| is computed only when the most negative reduced cost does not
already fail the test against a bound B >= max |grad| fixed per solve. The caller
computes the distance ||A x - b|| from the returned x in its own
coordinates, since x.G x - 2 h.x + ||b||^2 loses the small distances to
cancellation.

A caller that knows pinv(A) b in closed form (the Weyl min-norm step of a
:class:`~kdclassical.geometry.HullSystem` built from families, pinv(G) h of
one built from a projector list) passes it as ``candidate``, the first KKT
step (every column free, nu = 0), which ends the solve when it passes the KKT
test, together with ``kernel``, which gives a basis of ker G when asked. A
finite candidate that fails is moved within candidate + ker G
(:func:`_kernel_step`), and a row that still fails, or has no finite
candidate, runs the active set from the best vertex, unchanged.

Every call solves h as an (m, n) stack of right-hand sides against one
Gram, a 1-D h (one query) as a stack of one. The candidate step is checked
for all rows at once. When at least :data:`_MIN_STACK` rows are left
undecided they share one active-set loop, each iteration making one
stacked KKT step, gradient, entering choice and append, so numpy's
per-call cost is paid once per iteration instead of once per row; fewer
rows run the single loop one by one. A stacked row keeps its factor in the
buffer layout above, in buffers that start :data:`_STACK_WIDTH` wide and
double, at most to n, with the widest free set. The rows that drop in an
iteration drop together, in rounds: one line step for all, one downdate of
the last zeroed position of every row at a time, each row's chain gathered
into one block (an invalid factor is rebuilt alone), and one re-solve, which
sums u.u and u.w once per downdated row. The arithmetic is elementwise, or a cumulative sum along a row's own chain,
and every product is made per row, or per run of rows with free sets of
one size, so a row rounds exactly as it does alone and gets the same x,
path and verdict.
The failure convention of every hull query: a row that does not converge
is NaN in a stack, without touching the others (a None verdict from
:func:`~kdclassical.geometry.hull_membership`), and a 1-D h raises
SolverDidNotConverge.
Deterministic for a fixed column order; re-entrant (no shared state).
numpy only.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .exceptions import SolverDidNotConverge

_FEAS_TOL = 1e-12  # step entries sum to one, so their roundoff is a few ulps times n, far below this
_DUAL_TOL = 1e-11  # relative to max |grad|; a reduced cost sums n Gram products, so it rounds more than a step entry
# The Cholesky pivot delta^2 = G_jj - l.l of an entering column j counts as
# safely positive when delta^2 > _PIVOT_TOL * G_jj, far above the roundoff
# of that difference; below it the factor is not used. On the probe
# problems every pivot stays above 0.04 G_jj.
_PIVOT_TOL = 1e-10
# Reduced costs within _TIE_BAND max(1, B) of the minimum, and blocking
# ratios within a relative _TIE_BAND of the smallest, are tied: far above
# the few ulps of B by which the families' reduced costs tie, below _DUAL_TOL.
_TIE_BAND = 1e-12
# An iteration of the stacked loop costs a fixed number of numpy calls,
# several times those of the single loop. Timed on Ginibre and perturbation
# states at d = 6, 9, 12 and 16, the stacked loop beat the single loop run
# row by row from about 6 undecided rows at d = 6 and 9 and from 8 at d = 16
# (from 12 to 16 on Ginibre states at d = 12, whose rows drop three columns
# each); below this many undecided rows a stack runs the single loop row by row.
_MIN_STACK = 8
# A stack's [u, w, R] buffers start this many rows wide and double, at most
# to n, when its widest free set fills them: free sets stay at 15 of 24
# columns at d = 6 and reach 40 of 72 at d = 12.
_STACK_WIDTH = 16


def stack_buffer_bytes(m: int, n: int) -> int:
    """The most bytes the buffers of a stack of m rows over n columns hold at once: full width, and the copy it last grew from."""
    width = min(_STACK_WIDTH, n)
    while 2 * width < n:
        width *= 2
    last = width if width < n else 0
    return 8 * m * (n * (n + 2) + last * (last + 2))


def simplex_least_squares(
    gram: np.ndarray,
    h: np.ndarray,
    max_iter: int | None = None,
    candidate: np.ndarray | None = None,
    kernel: Callable[[], np.ndarray] | None = None,
) -> np.ndarray:
    """Return the minimizer x of ||A x - b|| over the simplex, given G = A^T A and h = A^T b.

    ``candidate`` is the caller's min-norm least-squares solution over all
    columns, pinv(A) @ b, when it has one in closed form. It is the first
    KKT step, with every column free and nu = 0, and it is returned when it
    is finite, feasible (entries >= -_FEAS_TOL, sum 1) and stationary on
    every column: then A x is the projection of b onto the span of the
    columns, so no point of the simplex is closer. Otherwise a finite
    candidate is moved within candidate + range(``kernel()``), an orthonormal
    basis of ker G (:func:`_kernel_step`), then the active set starts from
    the best vertex. ``kernel`` is required with ``candidate``; it is called
    at most once, and only when some row's finite candidate fails. A kernel
    of no columns moves nothing.

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
    if n == 0 or h.ndim > 2:
        raise ValueError(f"h must be one right-hand side of at least one column or a stack of them, got shape {h.shape}")
    max_iter = 10 * n + 100 if max_iter is None else max_iter
    rows = h.reshape(-1, n)
    if candidate is not None and kernel is None:
        raise ValueError("a candidate needs a kernel callable; one that returns no columns moves nothing")
    if candidate is None:
        x, todo = np.empty(rows.shape), np.arange(len(rows))
    else:
        z, _ = _solve_free(gram, rows, range(n), candidate=np.asarray(candidate, dtype=float).reshape(rows.shape))
        x, todo = np.maximum(z, 0.0), (~_feasible_and_stationary_rows(gram, rows, z)).nonzero()[0]
        finite = np.isfinite(z[todo]).all(axis=1)  # a NaN row has no candidate, and nothing moves an infinite one
        if finite.any():
            basis = kernel()
            todo = [r for r, movable in zip(todo, finite) if not (movable and _kernel_step(gram, rows[r], z[r], basis, x[r]))]
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
    scale = max(1.0, _grad_bound(gram, h))
    cutoff, band = -_DUAL_TOL * scale, _TIE_BAND * scale
    grad, reduced = np.empty(n), np.empty(n)

    for _ in range(max_iter):
        z, nu = _solve_free(gram, h, factor.free, factor)
        if z[z.argmin()] < -_FEAS_TOL:  # z.min() would go through a Python-level wrapper, about 1 us more
            z, nu = _drop_blocking(gram, h, x, factor, z, nu)
        free = factor.free
        x[free] = np.maximum(z, 0.0)

        # KKT convention from _solve_free is grad_free = -nu, so the
        # multiplier of a bound-active variable is grad_k + nu.
        np.subtract(np.matmul(gram, x, out=grad), h, out=grad)
        np.add(grad, nu, out=reduced)
        reduced[free] = 0.0
        cost = reduced[reduced.argmin()]
        # cutoff <= the test's own threshold, so below it the test fails.
        if cost >= cutoff and cost >= -_DUAL_TOL * max(1.0, float(np.maximum.reduce(np.abs(grad)))):
            return x
        # The lowest index within the band of cost < 0, and at most cost / 2, so never a free column's 0.
        factor.append(int((reduced <= min(cost + band, 0.5 * cost)).argmax()))

    raise SolverDidNotConverge(f"no optimality certificate after {max_iter} iterations")


def _drop_blocking(gram, h, x, factor: _FreeSetFactor, z: np.ndarray, nu: float) -> tuple[np.ndarray, float]:
    """While the KKT step z has a negative entry, step x toward it until the first free variable hits zero, drop it and step again.

    Every variable tied for the smallest ratio is zeroed, so that none is
    kept by the sign of a roundoff residue. The zeroed ones are dropped by
    :meth:`_FreeSetFactor.drop`, last position first (a rebuild if invalid).
    """
    inner = 0
    while z.min() < -_FEAS_TOL:
        free = factor.free
        xf = x[free]
        neg = np.flatnonzero(z < -_FEAS_TOL)
        ratios = xf[neg] / (xf[neg] - z[neg])
        alpha = float(ratios.min())
        xf = xf + alpha * (z - xf)
        xf[neg[ratios <= alpha * (1.0 + _TIE_BAND)]] = 0.0
        x[free] = np.maximum(xf, 0.0)
        if factor.valid:
            for i in np.flatnonzero(xf <= 0.0)[::-1]:
                factor.drop(int(i))
        else:
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
    exactly as the single loop would round it. The rows whose step has a
    negative entry drop their blocking columns together
    (:meth:`_FreeSetStack.drop_blocking`), and a row leaves the stack when it
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
    scale = np.maximum(1.0, _grad_bound(gram, stack.h))
    cutoff, band = -_DUAL_TOL * scale, _TIE_BAND * scale
    buffer = np.zeros(stack.x.shape)  # the reduced costs; its sink column n stays zero

    for _ in range(max_iter):
        z, nu = _solve_free(gram, stack.h, stack.free, stack)
        dropping = (z < -_FEAS_TOL).any(axis=1).nonzero()[0]
        failed = stack.drop_blocking(dropping, z, nu) if dropping.size else []
        m, offsets = len(nu), stack.offsets[: len(nu)]
        free = stack.cols[:, : z.shape[1]] + offsets  # flat indices into x and reduced
        stack.x.put(free, np.maximum(z, 0.0, out=z))

        # One matrix-vector product per row, as in the single loop.
        grad = np.matmul(gram, stack.x[:, :n, None])[:, :, 0]
        grad -= stack.h
        reduced = buffer[:m]
        np.add(grad, nu[:, None], out=reduced[:, :n])
        reduced.put(free, 0.0)
        cost = reduced.take(reduced.argmin(axis=1) + offsets[:, 0])  # reduced.min(axis=1), faster on short rows
        entering = (reduced <= np.minimum(cost + band, 0.5 * cost)[:, None]).argmax(axis=1)  # as in the single loop
        done = cost >= cutoff
        if done.any():
            done &= cost >= -_DUAL_TOL * np.maximum(1.0, np.abs(grad).max(axis=1))
            done[failed] = False
            out[stack.ids[done]] = stack.x[done, :n]
        if dropping.size or done.any():
            done[failed] = True
            if done.all():
                return
            rows = stack.keep(~done)
            cutoff, band, entering = cutoff[rows], band[rows], entering[rows]
        stack.append(entering)


def _grad_bound(gram: np.ndarray, h: np.ndarray):
    """B >= max |G x - h|, roundoff included, for x >= 0 with sum(x) <= 1.5; the loop's x sum to one. One per row of a stack."""
    return 2.0 * (float(np.maximum.reduce(np.abs(gram), axis=None)) + np.maximum.reduce(np.abs(h), axis=-1))


def _kernel_step(gram: np.ndarray, h: np.ndarray, z: np.ndarray, kernel: np.ndarray, out: np.ndarray) -> bool:
    """Move a failed finite candidate z within z + range(kernel), where A x and the gradient stay put; True, with x in ``out``, if x passes.

    Each round pins the entries below -_FEAS_TOL to zero by the min-norm t of K_P t = z_P, x = z - K t (K = kernel,
    orthonormal). It gives up when K_P K_P^T is singular, more columns are pinned than K has, or a round pins no new
    column or does not raise the most negative entry (every repair met at d = 4 to 12 raised it).
    """
    pinned = z < -_FEAS_TOL
    count, worst = np.count_nonzero(pinned), z[z.argmin()]
    while 0 < count <= kernel.shape[1]:
        rows = kernel.take(pinned.nonzero()[0], axis=0)
        try:  # ndarray.dot: on these small operands it costs less than matmul's dispatch
            x = z - kernel.dot(np.linalg.solve(rows.dot(rows.T), z[pinned]).dot(rows))
        except np.linalg.LinAlgError:
            return False
        if (least := x[x.argmin()]) >= -_FEAS_TOL:
            passed = bool(_feasible_and_stationary_rows(gram, h[None], x[None])[0])
            np.copyto(out, np.maximum(x, 0.0), where=passed)
            return passed
        pinned |= x < -_FEAS_TOL
        if not least > worst or count == (count := np.count_nonzero(pinned)):
            return False
        worst = least
    return False


def _feasible_and_stationary_rows(gram: np.ndarray, h: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The KKT test of each row of a stack of steps with every column free and nu = 0: z feasible, grad = 0 everywhere.

    A NaN or infinite entry fails the sign or the sum test, and with nu = 0
    max |grad + nu| <= _DUAL_TOL max(1, max |grad|) reads max |grad| <= _DUAL_TOL.
    """
    if len(z) == 1:  # the same bits in fewer calls: the sign and sum tests on numpy scalars
        ok = z[0, z[0].argmin()] >= -_FEAS_TOL and abs(np.add.reduce(z[0]) - 1.0) <= _FEAS_TOL * z.shape[1]
        return np.array([ok and np.maximum.reduce(np.abs(np.matmul(gram, z[0]) - h[0])) <= _DUAL_TOL])
    ok = (np.minimum.reduce(z, axis=1) >= -_FEAS_TOL) & (np.abs(np.add.reduce(z, axis=1) - 1.0) <= _FEAS_TOL * z.shape[1])
    if np.count_nonzero(ok):  # ufuncs and C calls, not the ndarray methods' Python wrappers
        grad = np.matmul(gram, z[:, :, None])[:, :, 0]  # per row, as alone
        grad -= h
        ok &= np.maximum.reduce(np.abs(grad, out=grad), axis=1) <= _DUAL_TOL
    return ok


class _FreeSetFactor:
    """The free set F in entry order, and the inverse Cholesky factor of G_F.

    Row i of the buffer ``b`` is [u_i, w_i, R_i.]: ``r[:k, :k]`` is R = L^-1
    for G_F = L L^T (lower triangular), ``u[:k]`` is R 1 and ``w[:k]`` is
    R h_F, all views of ``b``, which is sized for every column. ``uu`` and
    ``uw`` are u.u and u.w, summed as rows are appended and recomputed by
    :meth:`drop` and :meth:`rebuild`. ``valid`` is False while some pivot
    of F was not safely positive; the free set is still tracked then, and
    the next :meth:`rebuild` tries again.
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

    def drop(self, i: int) -> None:
        """Remove free position i from a valid factor in O(k^2), by Givens rotations in closed form.

        For the buffer rows b_r from r = i on, s_r = R[r, i], rho_r^2 =
        sum_{j<=r} s_j^2 and a_r = sum_{j<=r} s_j b_j / rho_r, the rows r > i
        become (rho_{r-1} b_r - s_r a_{r-1}) / rho_r. R^T R, u and w stay
        consistent, and a_{k-1} alone keeps an entry in column i; deleting it
        and column i leaves the factor of the free set without i.
        """
        k = self.k
        rows = self.b[i:k, : k + 2]
        s = rows[:, i + 2]
        rho = np.sqrt(np.cumsum(s * s))
        a = np.cumsum(s[:, None] * rows, axis=0) / rho[:, None]
        new = (rho[:-1, None] * rows[1:] - s[1:, None] * a[:-1]) / rho[1:, None]
        self.b[i : k - 1, : i + 2] = new[:, : i + 2]
        self.b[i : k - 1, i + 2 : k + 1] = new[:, i + 3 :]
        self.cols[i : k - 1] = self.cols[i + 1 : k]
        self.k = k - 1
        u, w = self.u[: k - 1], self.w[: k - 1]
        self.uu, self.uw = float(u @ u), float(u @ w)

    def rebuild(self, cols: np.ndarray) -> None:
        """Make F = cols and refactor G_F from scratch, appending its columns one by one to an empty factor."""
        self.k, self.uu, self.uw, self.valid = 0, 0.0, 0.0, True
        for j in np.asarray(cols).tolist():
            self.append(j)

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
    or are reordered by :meth:`keep`, in place.
    """

    _ROWS = ("h", "x", "b", "cols", "k", "uu", "uw", "valid", "ids")

    def __init__(self, gram: np.ndarray, h: np.ndarray, ids: np.ndarray):
        m, n = h.shape
        self.gram, self.h, self.ids = gram, h, np.array(ids)  # a copy: keep() reorders the rows in place
        self.x = np.zeros((m, n + 1))
        self.b = np.zeros((m, min(_STACK_WIDTH, n), min(_STACK_WIDTH, n) + 2))
        self.cols = np.full((m, n), n, dtype=np.intp)
        self.k = np.zeros(m, dtype=np.intp)
        self.uu, self.uw = np.zeros(m), np.zeros(m)
        self.valid = np.ones(m, dtype=bool)
        self.runs = [(0, m, 0)]
        self.offsets = np.arange(0, m * (n + 1), n + 1)[:, None]  # of row r in x.ravel(), by position

    @property
    def free(self) -> np.ndarray:
        """The (K, m) free columns, position first, K the largest k: free[i] is the i-th of every row, n past its k."""
        return self.cols[:, : self.runs[0][2]].T

    def keep(self, rows: np.ndarray) -> np.ndarray:
        """Keep the rows where the mask ``rows`` holds, sorted by k, largest first; return their old positions in the new order.

        Rows are moved in place, and only those whose k does not fit their place."""
        kept = rows.nonzero()[0]
        order = kept[np.argsort(-self.k[kept], kind="stable")]
        m = len(order)
        stays = np.zeros(len(rows), dtype=bool)
        stays[:m] = rows[:m] & (self.k[:m] == self.k[order])
        to, placed = (~stays[:m]).nonzero()[0], np.arange(m)
        placed[to] = come = order[~stays[order]]
        for name in self._ROWS:
            a = getattr(self, name)
            a[to] = a[come]
            setattr(self, name, a[:m])
        self.runs = _runs(self.k)
        return placed

    def solve(self, rows: np.ndarray | None = None, fresh: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The KKT steps (z, nu) of every row, or of ``rows`` sorted by k, largest first; z (m, K) zero past k[r], K the largest k.

        The rows where the mask ``fresh`` holds first get u.u and u.w summed
        anew, as :meth:`_FreeSetFactor.drop` sums them. A row whose factor is
        invalid or gives a non-finite step falls back on its own to :func:`_lstsq_step`.
        """
        sel = slice(None) if rows is None else rows
        b, k, valid, uu, uw = self.b[sel], self.k[sel], self.valid[sel], self.uu[sel], self.uw[sel]
        runs = self.runs if rows is None else _runs(k)
        if fresh is not None:
            for start, stop, run_k in runs:
                u = b[start:stop, None, :run_k, 0]
                np.copyto(uu[start:stop], np.matmul(u, b[start:stop, :run_k, 0, None])[:, 0, 0], where=fresh[start:stop])
                np.copyto(uw[start:stop], np.matmul(u, b[start:stop, :run_k, 1, None])[:, 0, 0], where=fresh[start:stop])
            self.uu[rows], self.uw[rows] = uu, uw
        nu = np.divide(uw - 1.0, uu, out=np.full(len(k), np.nan), where=valid)
        width = runs[0][2]
        v = b[:, :width, 1] - nu[:, None] * b[:, :width, 0]
        if len(runs) == 1:
            z = np.matmul(v[:, None, :], b[:, :width, 2 : width + 2])[:, 0]
        else:
            z = np.zeros((len(nu), width))
            for start, stop, run_k in runs:
                z[start:stop, :run_k] = np.matmul(v[start:stop, None, :run_k], b[start:stop, :run_k, 2 : run_k + 2])[:, 0]
        if not math.isfinite(np.add.reduce(nu) + np.add.reduce(z, axis=None)):
            h, cols = self.h[sel], self.cols[sel]
            for r in (~np.isfinite(nu + z.sum(axis=1))).nonzero()[0]:
                z[r, : k[r]], nu[r] = _lstsq_step(self.gram, h[r], cols[r, : k[r]])
        return z, nu

    def append(self, j: np.ndarray) -> None:
        """Add column j[r] to row r, for every row: :meth:`_FreeSetFactor.append`, its products and writes run by run.

        When the widest row fills the buffers, they first double in width, at most to n.
        """
        n, width = len(self.gram), self.runs[0][2]
        if width == self.b.shape[1]:
            grown, old = min(2 * width, n), self.b
            self.b = np.zeros((len(j), grown, grown + 2))
            self.b[:, :width, : width + 2] = old
        g = self.gram.take(j[:, None] * n + self.cols[:, :width], mode="clip")  # G[j, F]; clipped past k, and not read there
        ll, row = np.empty(len(j)), np.zeros((len(j), width + 2))
        for start, stop, run_k in self.runs:
            b = self.b[start:stop, :run_k, : run_k + 2]
            l = np.matmul(b[:, :, 2:], g[start:stop, :run_k, None])
            ll[start:stop] = np.matmul(l.transpose(0, 2, 1), l)[:, 0, 0]
            row[start:stop, : run_k + 2] = np.matmul(l.transpose(0, 2, 1), b)[:, 0]
        g_jj = self.gram[j, j]
        pivot = g_jj - ll
        self.valid &= pivot > _PIVOT_TOL * g_jj
        delta = np.sqrt(np.where(self.valid, pivot, 1.0))
        row[:, 0] -= 1.0
        row[:, 1] -= self.h[np.arange(len(j)), j]
        row /= -delta[:, None]
        self.uu += row[:, 0] * row[:, 0]
        self.uw += row[:, 0] * row[:, 1]
        for start, stop, run_k in self.runs:  # buffer row k is zero past column k + 2 already, as every row r past r + 2
            self.b[start:stop, run_k, : run_k + 2] = row[start:stop, : run_k + 2]
            self.b[start:stop, run_k, run_k + 2] = 1.0 / delta[start:stop]
            self.cols[start:stop, run_k] = j[start:stop]
        self.k += 1
        self.runs = [(start, stop, run_k + 1) for start, stop, run_k in self.runs]

    def drop_blocking(self, rows: np.ndarray, z: np.ndarray, nu: np.ndarray) -> list[int]:
        """:func:`_drop_blocking` for the given rows together, writing their new steps into z and nu; returns the rows that fail.

        ``rows`` are sorted by k, largest first. A round steps every row still
        dropping, :meth:`_downdate` removes the last zeroed position of every
        valid factor until none is left, an invalid factor is rebuilt alone,
        and :meth:`solve` re-solves the rows, sorted by their new k.
        """
        n = len(self.gram)
        for _ in range(n + 10):  # the cap of _drop_blocking: a row still dropping after it fails
            valid, width = self.valid[rows], int(self.k[rows[0]])
            cols, zr = self.cols[rows, :width], z[rows, :width]
            free = cols + self.offsets[rows]  # flat indices into x
            xf = self.x.take(free)
            ratios = np.divide(xf, xf - zr, out=np.full(xf.shape, np.inf), where=zr < -_FEAS_TOL)
            alpha = np.minimum.reduce(ratios, axis=1)[:, None]
            xf += alpha * (zr - xf)
            xf[ratios <= alpha * (1.0 + _TIE_BAND)] = 0.0
            self.x.put(free, np.maximum(xf, 0.0))
            kept = xf > 0.0  # never past k, where x and z are zero
            zeroed = ~kept & (cols < n) & valid[:, None]
            while zeroed.any():
                at = np.logical_or.reduce(zeroed, axis=1).nonzero()[0]
                i = width - 1 - zeroed[at, ::-1].argmax(axis=1)
                self._downdate(rows[at], i)
                zeroed[at, i] = False
            for j in (~valid).nonzero()[0].tolist():
                r = int(rows[j])
                factor = _FreeSetFactor(self.gram, self.h[r], b=self.b[r], cols=self.cols[r])
                factor.rebuild(cols[j, kept[j]])
                self.k[r], self.uu[r], self.uw[r], self.valid[r] = factor.k, factor.uu, factor.uw, factor.valid
                self.cols[r, factor.k :] = n
            order = (-self.k[rows]).argsort(kind="stable")
            rows = rows[order]
            step, nu[rows] = self.solve(rows, fresh=valid[order])
            z[rows, : step.shape[1]] = step
            z[rows, step.shape[1] :] = 0.0
            rows = rows[np.logical_or.reduce(step < -_FEAS_TOL, axis=1)]
            if not rows.size:
                return []
        return rows.tolist()

    def _downdate(self, rows: np.ndarray, i: np.ndarray) -> None:
        """:meth:`_FreeSetFactor.drop` of free position i[j] from row rows[j], for all at once, leaving u.u and u.w to :meth:`solve`.

        Each row's buffer rows i..k-1 form one block, a shorter chain padded
        with copies of its last row k - 1, which no live row sums. The rotated
        padding is written back to row k - 1, which leaves the free set; like
        every row r of the buffer, it stays zero past column r + 2.
        """
        n, k = len(self.gram), self.k[rows]
        span = k - i
        at = np.minimum(i[:, None] + np.arange(span[span.argmax()]), k[:, None] - 1)
        g = self.b[rows[:, None], at, : k[k.argmax()] + 2]
        s = self.b[rows[:, None], at, (i + 2)[:, None]]
        rho = np.sqrt(np.add.accumulate(s * s, axis=1))
        a = np.add.accumulate(s[:, :, None] * g, axis=1) / rho[:, :, None]
        new = (rho[:, :-1, None] * g[:, 1:] - s[:, 1:, None] * a[:, :-1]) / rho[:, 1:, None]
        before = np.arange(g.shape[2] - 1) < (i + 2)[:, None, None]  # column i deleted
        self.b[rows[:, None], at[:, :-1], : g.shape[2] - 1] = np.where(before, new[:, :, :-1], new[:, :, 1:])
        self.cols[rows[:, None], at[:, :-1]] = self.cols[rows[:, None], at[:, 1:]]
        self.cols[rows, k - 1] = n
        self.k[rows] = k - 1


def _runs(k: np.ndarray) -> list[tuple[int, int, int]]:
    """The (start, stop, k) of each run of equal k in k, which is sorted, largest first."""
    starts = [0, *((k[1:] != k[:-1]).nonzero()[0] + 1).tolist()]
    return [(start, stop, int(k[start])) for start, stop in zip(starts, [*starts[1:], len(k)])]


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
    free set, passed with ``free`` = ``factor.free``; when it is valid and
    gives a finite step, that step is returned. Otherwise the bordered KKT
    matrix is solved by least squares, which gives its minimum-norm
    solution when it is singular.

    With a :class:`_FreeSetStack`, h holds its rows and ``free`` is its
    (K, m) :attr:`~_FreeSetStack.free`; the step is (m, K), zero past each
    row's free set, and nu has one entry per row, each row falling back on
    its own.
    """
    if candidate is not None:
        return np.asarray(candidate, dtype=float), 0.0
    if isinstance(factor, _FreeSetStack):
        return factor.solve()
    if factor is not None and factor.valid:
        z, nu = factor.solve()
        if math.isfinite(nu) and math.isfinite(z @ z):  # finite only if every entry is; cheaper than z.sum()
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
