from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import kdclassical
from kdclassical import dft_pair, pure_kd_set
from kdclassical.families import all_projectors
from kdclassical.geometry import hull_membership, hull_system, stack_real
from kdclassical.harness import _ginibre_state, _rng, perturbation_basis
from kdclassical import solver
from kdclassical.solver import _DUAL_TOL, _FEAS_TOL, _FreeSetFactor, _grad_bound, _solve_free, simplex_least_squares


def lstsq_reference(gram, h, free):
    """The KKT step solved by SVD least squares on a separately built matrix, as a reference."""
    k = len(free)
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = gram[np.ix_(free, free)]
    kkt[:k, k] = kkt[k, :k] = 1.0
    sol, *_ = np.linalg.lstsq(kkt, np.append(h[free], 1.0), rcond=None)
    return sol[:k], float(sol[k])


@pytest.mark.parametrize("seed", range(5))
def test_factor_step_agrees_with_lstsq_on_well_conditioned_free_sets(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((60, 40))
    gram, h = a.T @ a, a.T @ rng.standard_normal(60)
    for k in (1, 2, 7, 20, 40):
        free = sorted(rng.choice(40, size=k, replace=False).tolist())
        z, nu = _solve_free(gram, h, free)
        z_ref, nu_ref = lstsq_reference(gram, h, free)
        scale = 1.0 + np.abs(z_ref).max() + abs(nu_ref)
        assert np.abs(z - z_ref).max() <= 1e-10 * scale
        assert abs(nu - nu_ref) <= 1e-10 * scale
        assert abs(z.sum() - 1.0) <= 1e-12 * scale


def test_singular_kkt_falls_back_to_minimum_norm_solution():
    # Columns 0 and 1 coincide, so rows 0 and 1 of the KKT matrix are equal
    # and LU would meet an exactly zero pivot; least squares does not.
    a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    gram, h = a.T @ a, a.T @ np.array([0.5, 0.5])
    free = [0, 1]
    kkt = np.ones((3, 3))
    kkt[:2, :2] = gram[:2, :2]
    kkt[2, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(kkt, np.ones(3))
    z, nu = _solve_free(gram, h, free)
    z_ref, nu_ref = lstsq_reference(gram, h, free)
    assert np.isfinite(z).all() and np.isfinite(nu)
    assert np.allclose(z, [0.5, 0.5], atol=1e-12)
    assert np.allclose(z, z_ref, atol=1e-12) and abs(nu - nu_ref) <= 1e-12


def test_given_gram_gives_the_same_solution():
    # The solver sees A only through G = A^T A and h = A^T b: rows of (A, b)
    # that add nothing to either (zero rows) leave x unchanged.
    rng = np.random.default_rng(3)
    a = rng.standard_normal((30, 12))
    b = rng.standard_normal(30)
    padded, padded_b = np.vstack([a, np.zeros((5, 12))]), np.append(b, np.zeros(5))
    x = simplex_least_squares(a.T @ a, a.T @ b)
    x_p = simplex_least_squares(padded.T @ padded, padded.T @ padded_b)
    assert np.array_equal(x, x_p)
    assert np.linalg.norm(a @ x - b) == np.linalg.norm(padded @ x_p - padded_b)


def test_hull_system_gives_the_same_verdict_as_the_projector_list():
    projs, _ = all_projectors(pure_kd_set(dft_pair(6)))
    system = hull_system(projs)
    rank_one = stack_real([np.outer(v, v.conj()) for v in system.states.T])
    assert np.abs(rank_one - stack_real(projs)).max() <= 1e-15
    rng = np.random.default_rng(4)
    for _ in range(5):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rho = g @ g.conj().T
        rho /= rho.trace().real
        by_list, by_system = hull_membership(rho, projs), hull_membership(rho, system)
        assert by_list.distance == by_system.distance and by_list.member == by_system.member


def reference_simplex_least_squares(a, b):
    """The active-set loop with sorted list bookkeeping and every step through
    ``_solve_free`` without a factor, as a reference for the factor path."""
    n = a.shape[1]
    gram, h = a.T @ a, a.T @ b
    start = int(np.argmin(gram.diagonal() - 2.0 * h))
    x = np.zeros(n)
    x[start] = 1.0
    free = [start]
    for _ in range(10 * n + 100):
        z, nu = _solve_free(gram, h, free)
        while z.min() < -_FEAS_TOL:
            xf = x[free]
            neg = z < -_FEAS_TOL
            ratios = xf[neg] / (xf[neg] - z[neg])
            xf = xf + float(ratios.min()) * (z - xf)
            xf[np.where(neg)[0][np.argmin(ratios)]] = 0.0
            x[:] = 0.0
            x[free] = np.maximum(xf, 0.0)
            free = [j for j, v in zip(free, xf) if v > 0.0]
            z, nu = _solve_free(gram, h, free)
        x[:] = 0.0
        x[free] = np.maximum(z, 0.0)
        grad = gram @ x - h
        reduced = grad + nu
        reduced[free] = 0.0
        entering = int(np.argmin(reduced))
        if reduced[entering] >= -_DUAL_TOL * max(1.0, float(np.abs(grad).max())):
            return x, float(np.linalg.norm(a @ x - b))
        free = sorted(free + [entering])
    raise AssertionError("reference loop did not converge")


def simplex_gap(a, b, x):
    """Frank-Wolfe gap x.g - min(g) of g = A^T (A x - b), relative to max(1, |g|), and the primal violation."""
    grad = a.T @ (a @ x - b)
    scale = max(1.0, float(np.abs(grad).max()))
    return (float(x @ grad - grad.min()) / scale, abs(float(x.sum()) - 1.0) + max(0.0, -float(x.min())))


def random_problem(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "full_rank":  # unique minimizer
        n = int(rng.integers(2, 30))
        return rng.standard_normal((n + 10, n)), rng.standard_normal(n + 10), True
    if kind == "duplicated":  # rank-deficient Gram: some columns appear twice
        base = rng.standard_normal((12, 10))
        a = np.hstack([base, base[:, rng.choice(10, size=5, replace=False)]])
        return a[:, rng.permutation(15)], base @ rng.dirichlet(np.ones(10)) + 0.1 * rng.standard_normal(12), False
    # Drop-heavy: far points on the floor x_5 = 0, a target just below the
    # floor, and decoys just above it. The start is a decoy, and every decoy
    # that enters has to leave: the optimum is on the floor.
    far = np.vstack([3.0 * rng.standard_normal((5, 20)), np.zeros((1, 20))])
    target = far @ rng.dirichlet(np.ones(20)) - [0, 0, 0, 0, 0, 0.2]
    decoys = target[:, None] + np.vstack([0.3 * rng.standard_normal((5, 4)), np.full((1, 4), 0.5)])
    return np.hstack([decoys, far]), target, False


PROBLEMS = [(kind, seed) for kind, count in (("full_rank", 25), ("duplicated", 15), ("drop_heavy", 10))
            for seed in range(count)]


@pytest.mark.parametrize("kind, seed", PROBLEMS)
def test_factor_path_matches_the_factor_free_loop(kind, seed, monkeypatch):
    a, b, unique = random_problem(kind, seed)
    calls = {"factor": 0, "drop": 0}
    solve, drop_blocking = _FreeSetFactor.solve, solver._drop_blocking

    def counting_solve(self):
        calls["factor"] += 1
        return solve(self)

    def counting_drop_blocking(*args):
        calls["drop"] += 1
        return drop_blocking(*args)

    monkeypatch.setattr(_FreeSetFactor, "solve", counting_solve)
    monkeypatch.setattr(solver, "_drop_blocking", counting_drop_blocking)
    x = simplex_least_squares(a.T @ a, a.T @ b)
    dist = float(np.linalg.norm(a @ x - b))
    monkeypatch.undo()
    x_ref, dist_ref = reference_simplex_least_squares(a, b)
    assert calls["factor"] > 0
    if kind == "drop_heavy":
        assert calls["drop"] > 0
    assert abs(dist - dist_ref) <= 1e-12 * max(1.0, dist_ref)
    if unique:
        assert np.abs(x - x_ref).max() <= 1e-9
    gap, primal = simplex_gap(a, b, x)
    assert gap <= _DUAL_TOL and primal <= 1e-12


def test_factor_grown_by_appends_equals_a_cold_factor():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((50, 30))
    gram, h = a.T @ a, a.T @ rng.standard_normal(50)
    factor = _FreeSetFactor(gram, h)
    order = rng.permutation(30)[:25]
    for j in order:
        factor.append(int(j))
    assert factor.valid and np.array_equal(factor.free, order)
    r_cold = np.linalg.inv(np.linalg.cholesky(gram[np.ix_(order, order)]))
    k = len(order)
    scale = np.abs(r_cold).max()
    assert np.abs(factor.r[:k, :k] - r_cold).max() <= 1e-12 * scale
    assert np.abs(factor.u[:k] - r_cold.sum(axis=1)).max() <= 1e-12 * scale * k
    assert np.abs(factor.w[:k] - r_cold @ h[order]).max() <= 1e-12 * scale * np.abs(h).sum()
    factor.rebuild(order[::2])
    r_cold = np.linalg.inv(np.linalg.cholesky(gram[np.ix_(order[::2], order[::2])]))
    assert factor.valid and np.abs(factor.r[: len(r_cold), : len(r_cold)] - r_cold).max() <= 1e-12 * scale
    z, nu = _solve_free(gram, h, factor.free, factor)
    z_ref, nu_ref = lstsq_reference(gram, h, factor.free.tolist())
    assert np.abs(z - z_ref).max() <= 1e-10 * (1.0 + np.abs(z_ref).max()) and abs(nu - nu_ref) <= 1e-10 * (1.0 + abs(nu_ref))


def test_running_kkt_scalars_match_fresh_dot_products():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((50, 30))
    gram, h = a.T @ a, a.T @ rng.standard_normal(50)
    factor = _FreeSetFactor(gram, h)
    order = rng.permutation(30)[:25]
    for j in order:
        factor.append(int(j))
    for cols in (None, order[1::2], order[::3]):
        if cols is not None:
            factor.rebuild(cols)
        k = factor.k
        u, w = factor.u[:k], factor.w[:k]
        assert factor.valid
        assert abs(factor.uu - u @ u) <= 1e-12 * (u @ u)
        assert abs(factor.uw - u @ w) <= 1e-12 * (np.abs(u) @ np.abs(w))


@pytest.mark.parametrize("seed", range(10))
def test_gradient_bound_holds_on_the_simplex(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    a = rng.standard_normal((n + 5, n)) * rng.uniform(0.01, 10.0)
    gram, h = a.T @ a, a.T @ rng.standard_normal(n + 5) * rng.uniform(0.1, 100.0)
    bound = _grad_bound(gram, h)
    # A step z that sums to one with entries down to -_FEAS_TOL, which the
    # loop keeps as x = max(z, 0): sum(x) is then slightly above one.
    z = np.where(rng.random(n) < 0.5, -_FEAS_TOL * rng.random(n), rng.random(n))
    z[0] = 1.0
    z[z > 0] *= (1.0 - z[z < 0].sum()) / z[z > 0].sum()
    for x in (rng.dirichlet(np.ones(n)), rng.dirichlet(np.full(n, 0.05)), np.eye(n)[rng.integers(n)],
              np.maximum(z, 0.0)):
        assert np.abs(gram @ x - h).max() <= bound


@pytest.mark.parametrize("offset", [0.0, 1e-6])
def test_near_singular_append_falls_back(offset):
    # Column 1 is column 0 up to ``offset``, so its Cholesky pivot is
    # offset^2 (relative to G_11), below the threshold though not always
    # zero, and the step must come from the lstsq path.
    a = np.array([[1.0, 1.0, 0.0], [0.0, offset, 1.0]])
    gram, h = a.T @ a, a.T @ np.array([0.5, 0.5])
    factor = _FreeSetFactor(gram, h)
    factor.append(0)
    factor.append(1)
    assert not factor.valid and factor.free.tolist() == [0, 1]
    z, nu = _solve_free(gram, h, factor.free, factor)
    z_plain, nu_plain = _solve_free(gram, h, [0, 1])
    assert np.array_equal(z, z_plain) and nu == nu_plain
    if offset == 0.0:
        z_ref, nu_ref = lstsq_reference(gram, h, [0, 1])
        assert np.allclose(z, z_ref, atol=1e-12) and abs(nu - nu_ref) <= 1e-12
    factor.append(2)  # the free set is still tracked while the factor is invalid
    assert not factor.valid and factor.free.tolist() == [0, 1, 2]
    factor.rebuild(np.array([0, 2]))
    assert factor.valid


def test_non_finite_factor_step_falls_back(monkeypatch):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((20, 8))
    gram, h = a.T @ a, a.T @ rng.standard_normal(20)
    factor = _FreeSetFactor(gram, h)
    for j in (1, 4, 6):
        factor.append(j)
    monkeypatch.setattr(_FreeSetFactor, "solve", lambda self: (np.full(3, np.nan), 0.0))
    z, nu = _solve_free(gram, h, factor.free, factor)
    z_plain, nu_plain = _solve_free(gram, h, [1, 4, 6])
    assert np.array_equal(z, z_plain) and nu == nu_plain


def test_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(kdclassical.__file__))
    code = "import sys, kdclassical, kdclassical.solver; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def downdate_errors(factor, gram, h):
    """Largest deviations of the factor from R G_F R^T = I, u = R 1, w = R h_F and its running sums, and above R's diagonal."""
    k, free = factor.k, factor.free
    r, u, w = factor.r[:k, :k], factor.u[:k], factor.w[:k]
    return (np.abs(r @ gram[np.ix_(free, free)] @ r.T - np.eye(k)).max(), np.abs(u - r.sum(axis=1)).max(),
            np.abs(w - r @ h[free]).max(), abs(factor.uu - u @ u), abs(factor.uw - u @ w),
            np.abs(np.triu(factor.r[:k], 1)).max())


@pytest.mark.parametrize("positions", [[0], [5], [11], [11, 4], [3, 3], [0, 0, 0]], ids=str)
def test_downdate_after_drops_is_the_factor_of_the_smaller_free_set(positions):
    # First, middle and last position of twelve, and repeated drops; each
    # leaves R lower triangular with zeros past its own k, as append expects.
    rng = np.random.default_rng(21)
    a = rng.standard_normal((40, 20))
    gram, h = a.T @ a / 40, a.T @ rng.standard_normal(40) / 40
    factor = _FreeSetFactor(gram, h)
    order = rng.permutation(20)[:12].tolist()
    for j in order:
        factor.append(j)
    for i in positions:
        factor.drop(i)
        del order[i]
    assert factor.valid and factor.free.tolist() == order
    assert max(downdate_errors(factor, gram, h)) <= 1e-12
    factor.append(int(np.setdiff1d(np.arange(20), order)[0]))  # a later append builds on the downdated rows
    assert max(downdate_errors(factor, gram, h)) <= 1e-12


def seeded_states(kind, n):
    """The seed-12721 states of the benchmark's ginibre-d6, perturb-d6 and certify-d9 workloads, with their dimension."""
    if kind == "ginibre-d6":
        return 6, [_ginibre_state(_rng(12721, i), 6) for i in range(n)]
    d = 6 if kind == "perturb-d6" else 9
    config = kdclassical.SampleConfig(d=d, seed=12721, n_samples=n, mode="perturb")
    basis = perturbation_basis(None, dft_pair(d))
    return d, [kdclassical.sample_kd_boundary(config, basis, index=i) for i in range(n)]


def entering_paths(monkeypatch, gram, h):
    """x and each row's entering columns, from single solves of each row and from one stacked solve of all rows, and the number of downdates."""
    paths, drops = {}, []
    append, stack_append, drop = _FreeSetFactor.append, solver._FreeSetStack.append, _FreeSetFactor.drop

    def single(self, j):
        paths.setdefault(("single", id(self)), []).append(int(j))
        return append(self, j)

    def stacked(self, j):
        for row, col in zip(self.ids.tolist(), j.tolist()):
            paths.setdefault(("stacked", row), []).append(col)
        return stack_append(self, j)

    monkeypatch.setattr(_FreeSetFactor, "append", single)
    monkeypatch.setattr(solver._FreeSetStack, "append", stacked)
    monkeypatch.setattr(_FreeSetFactor, "drop", lambda self, i: drops.append(i) or drop(self, i))
    x_single, singles = [], []
    for row in h:
        paths.clear()
        x_single.append(simplex_least_squares(gram, row))
        singles.append(next(iter(paths.values())))
    paths.clear()
    x_stacked = simplex_least_squares(gram, h)
    monkeypatch.undo()
    return np.array(x_single), singles, x_stacked, [paths[("stacked", row)] for row in range(len(h))], len(drops)


@pytest.mark.parametrize("kind", ["ginibre-d6", "perturb-d6", "certify-d9"])
def test_solver_path_does_not_depend_on_the_last_bit_of_the_gram(kind, monkeypatch):
    # |V^H V|^2 and Re^2 + Im^2 of the overlaps differ by a few ulps; the
    # families' symmetry makes reduced costs tie, and a tie broken by
    # roundoff would send the two solves down different paths to different
    # minimizers (the distance is unique, x is not).
    d, states = seeded_states(kind, 200 if kind == "certify-d9" else 250)
    system = hull_system(pure_kd_set(dft_pair(d)))
    overlaps = system.states.conj().T @ system.states
    other = overlaps.real**2 + overlaps.imag**2
    assert 0 < np.abs(other - system.gram).max() <= 1e-15
    h = system.expectations(np.array(states))
    x, singles, x_stacked, stacked, drops = entering_paths(monkeypatch, system.gram, h)
    assert drops > 0  # the downdate is on these paths
    x_other, singles_other, x_stacked_other, stacked_other, _ = entering_paths(monkeypatch, other, h)
    assert singles == singles_other and stacked == stacked_other == singles
    assert np.abs(x - x_other).max() <= 1e-15 and np.array_equal(x, x_stacked)
    assert np.array_equal(x_other, x_stacked_other)


def test_blocking_ratio_ties_all_leave():
    # Free set [1, 3, 2] in entry order; the line step's ratios for columns 1
    # and 3 are 1/2 and 1/(2 + 4e-14), a tie within the band. Both leave,
    # though column 1 would be left at about 4e-15 by the step; alone, on
    # {1, 2}, the next step would be positive and keep it.
    gram, h = np.eye(4), np.array([0.0, 0.5, 0.5, 0.0])
    factor = _FreeSetFactor(gram, h)
    for j in (1, 3, 2):
        factor.append(j)
    x = np.array([0.0, 0.2, 0.6, 0.2])
    z = np.array([-0.2, -0.2 * (1 + 4e-14), 1.4 + 0.8e-14])
    step, _ = solver._drop_blocking(gram, h, x, factor, z, 0.0)
    assert factor.free.tolist() == [2] and x[1] == x[3] == 0.0 and step.tolist() == [1.0]
