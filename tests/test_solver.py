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
    assert np.array_equal(system.matrix, stack_real(projs))
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
    calls = {"factor": 0, "rebuild": 0}
    solve, rebuild = _FreeSetFactor.solve, _FreeSetFactor.rebuild

    def counting_solve(self):
        calls["factor"] += 1
        return solve(self)

    def counting_rebuild(self, cols):
        calls["rebuild"] += 1
        return rebuild(self, cols)

    monkeypatch.setattr(_FreeSetFactor, "solve", counting_solve)
    monkeypatch.setattr(_FreeSetFactor, "rebuild", counting_rebuild)
    x = simplex_least_squares(a.T @ a, a.T @ b)
    dist = float(np.linalg.norm(a @ x - b))
    monkeypatch.undo()
    x_ref, dist_ref = reference_simplex_least_squares(a, b)
    assert calls["factor"] > 0
    if kind == "drop_heavy":
        assert calls["rebuild"] > 0
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
