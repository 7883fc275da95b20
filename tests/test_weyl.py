"""The frame operator of the family projectors in the Weyl basis, and the solver step built on it."""

from __future__ import annotations

import numpy as np
import pytest

from kdclassical import SampleConfig, dft_pair, kd_real_basis, kd_real_dimension, pure_kd_set, sample_kd_boundary, solver
from kdclassical.geometry import (
    HullSystem,
    frame_multiplicities,
    from_weyl,
    hull_membership,
    hull_system,
    stack_real,
    weyl_coefficients,
)
from kdclassical.harness import _ginibre_state, _rng
from kdclassical.solver import simplex_least_squares


def family_system(d):
    return hull_system(pure_kd_set(dft_pair(d)))


def states(d, n=3):
    """n perturbation states (in the span) and n Ginibre states (off it)."""
    config = SampleConfig(d=d, seed=5, n_samples=n, mode="perturb")
    basis = kd_real_basis(d)
    return [sample_kd_boundary(config, basis, index=i) for i in range(n)] + [
        _ginibre_state(_rng(5, i), d) for i in range(n)
    ]


@pytest.mark.parametrize("d", [4, 6, 9, 12, 30])
def test_nonzero_gram_spectrum_is_the_multiset_of_frame_multiplicities(d):
    families = pure_kd_set(dft_pair(d))
    c = frame_multiplicities(families)
    eig = np.linalg.eigvalsh(family_system(d).gram)
    nonzero = np.sort(eig[eig > 1e-8])
    assert nonzero.size == np.count_nonzero(c) == kd_real_dimension(d)
    assert np.abs(nonzero - np.sort(c[c > 0]).astype(float)).max() <= 1e-9
    assert np.abs(eig[eig <= 1e-8]).max() <= 1e-9


@pytest.mark.parametrize("d", [5, 6, 12])
def test_weyl_coefficients_round_trip_and_match_the_trace_definition(d):
    rho = states(d, 1)[1]
    coeffs = weyl_coefficients(rho)
    assert np.abs(from_weyl(coeffs) - rho).max() <= 1e-14
    j = np.arange(d)
    for a, b in [(0, 0), (1, 0), (0, 1), (d - 1, 2)]:
        weyl = np.zeros((d, d), dtype=complex)
        weyl[(j + a) % d, j] = np.exp(2j * np.pi * b * j / d)  # X^a Z^b
        assert abs(coeffs[a, b] - np.trace(weyl.conj().T @ rho)) <= 1e-13


@pytest.mark.parametrize("d", [6, 12, 30])
def test_min_norm_coefficients_and_off_span_distance_match_pinv_and_lstsq(d):
    system = family_system(d)
    pinv = np.linalg.pinv(system.matrix)
    for rho in states(d):
        vec = stack_real([rho]).reshape(-1)
        coeffs = weyl_coefficients(rho)
        x_ref = pinv @ vec
        sol, *_ = np.linalg.lstsq(system.matrix, vec, rcond=None)
        residual = float(np.linalg.norm(system.matrix @ sol - vec))
        assert np.abs(system.min_norm_coefficients(coeffs) - x_ref).max() <= 1e-12
        assert abs(system.off_span_distance(coeffs) - residual) <= 1e-12


def test_projector_list_system_has_no_weyl_data():
    projs = [p for fam in pure_kd_set(dft_pair(6)) for p in fam.projectors()]
    by_list, by_families = hull_system(projs), family_system(6)
    assert by_list.states is None and by_list.weights is None
    assert np.array_equal(by_list.matrix, by_families.matrix) and np.array_equal(by_list.gram, by_families.gram)


class StepCounter:
    """Wraps solver._solve_free and counts its calls."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = solver._solve_free

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "_solve_free", counted)


def decided_state(system, d):
    """A perturbation state whose min-norm coefficients the solver accepts."""
    config = SampleConfig(d=d, seed=12721, n_samples=1, mode="perturb")
    basis = kd_real_basis(d)
    for index in range(50):
        rho = sample_kd_boundary(config, basis, index=index)
        x = system.min_norm_coefficients(weyl_coefficients(rho))
        if x.min() > 1e-6:
            return rho, x
    raise AssertionError("no interior perturbation state found")


def plain_distance(system, rho):
    return simplex_least_squares(system.matrix, stack_real([rho]).reshape(-1), gram=system.gram)[1]


def test_accepted_step_is_one_kkt_call_with_every_column_free(monkeypatch):
    system = family_system(6)
    rho, _ = decided_state(system, 6)
    seen = []
    original = solver._solve_free

    def recording(gram, h, free, *args, **kwargs):
        seen.append(len(free))
        return original(gram, h, free, *args, **kwargs)

    monkeypatch.setattr(solver, "_solve_free", recording)
    verdict = hull_membership(rho, system)
    assert seen == [system.gram.shape[0]]
    assert verdict.member and abs(verdict.distance - plain_distance(system, rho)) <= 1e-14
    assert verdict.certificate.coefficients.min() >= 0.0
    assert abs(verdict.certificate.coefficient_sum - 1.0) <= 1e-12


def null_vector(system):
    """A kernel vector of the stacked matrix, scaled to max-norm 1."""
    _, sigma, vt = np.linalg.svd(system.matrix)
    v = vt[-1]
    assert sigma[-1] <= 1e-10 * sigma[0]
    return v / np.abs(v).max()


@pytest.mark.parametrize("defect", ["negative", "non-finite", "not-stationary"])
def test_a_step_that_fails_a_check_falls_back_to_the_plain_solver(monkeypatch, defect):
    system = family_system(6)
    rho, x = decided_state(system, 6)
    v = null_vector(system)  # x + t v stays stationary and sums to one
    if defect == "negative":
        # Only the sign check can catch this one.
        bad = x + 1.5 * x.max() * v
        assert bad.min() < -1e-6 and abs(bad.sum() - 1.0) <= 1e-12
    elif defect == "non-finite":
        # Move along v until entry k reaches zero, then make it NaN: read
        # as zero, the step would pass every other check.
        shrinking = v < 0
        ratios = np.where(shrinking, x / np.where(shrinking, -v, 1.0), np.inf)
        k = int(np.argmin(ratios))
        bad = x + ratios[k] * v
        assert bad.min() >= -1e-15 and abs(bad[k]) <= 1e-15
        bad[k] = np.nan
    else:
        # Feasible and summing to one, but not a minimizer over the span.
        bad = x.copy()
        bad[0] += 1e-7
        bad[1] -= 1e-7
    monkeypatch.setattr(HullSystem, "min_norm_coefficients", lambda self, coeffs: bad)
    counter = StepCounter(monkeypatch)
    verdict = hull_membership(rho, system)
    assert counter.calls > 2  # the candidate, then the active-set steps
    assert verdict.distance == plain_distance(system, rho)
    assert np.isfinite(verdict.certificate.coefficients).all()
    assert verdict.certificate.coefficients.min() >= 0.0


def test_a_step_off_the_simplex_falls_back():
    # Trace 1 + 5e-10 passes the input gate, but the min-norm coefficients
    # then sum to the trace; the simplex-constrained solution sums to one.
    system = family_system(6)
    rho, _ = decided_state(system, 6)
    rho = rho * (1.0 + 5e-10)
    verdict = hull_membership(rho, system)
    assert abs(verdict.certificate.coefficient_sum - 1.0) <= 1e-14
    assert verdict.distance == plain_distance(system, rho)


def test_off_span_states_never_reach_the_min_norm_step(monkeypatch):
    system = family_system(6)

    def forbidden(self, coeffs):
        raise AssertionError("min-norm step computed for an off-span state")

    monkeypatch.setattr(HullSystem, "min_norm_coefficients", forbidden)
    for rho in states(6)[3:]:
        assert hull_membership(rho, system).distance == plain_distance(system, rho)
