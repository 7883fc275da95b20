from __future__ import annotations

import numpy as np
import pytest

from kdclassical import dft_pair, pure_kd_set
from kdclassical.families import all_projectors
from kdclassical.geometry import hull_membership, hull_system, stack_real
from kdclassical.solver import _solve_free, simplex_least_squares


def lstsq_reference(gram, h, free):
    """The KKT step solved by SVD least squares, as a reference for the LU step."""
    k = len(free)
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = gram[np.ix_(free, free)]
    kkt[:k, k] = kkt[k, :k] = 1.0
    sol, *_ = np.linalg.lstsq(kkt, np.append(h[free], 1.0), rcond=None)
    return sol[:k], float(sol[k])


@pytest.mark.parametrize("seed", range(5))
def test_lu_step_agrees_with_lstsq_on_well_conditioned_free_sets(seed):
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
    # and LU meets an exactly zero pivot.
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
    rng = np.random.default_rng(3)
    a = rng.standard_normal((30, 12))
    b = rng.standard_normal(30)
    x, dist = simplex_least_squares(a, b)
    x_g, dist_g = simplex_least_squares(a, b, gram=a.T @ a)
    assert np.array_equal(x, x_g) and dist == dist_g


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
