"""The frame operator of the family projectors in the Weyl basis, and the min-norm solver step.

The step comes from the Weyl coefficients for a system built from families,
and from the pseudo-inverse of the Gram for one built from a projector list.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from kdclassical import SampleConfig, dft_pair, geometry, kd_real_basis, kd_real_dimension, pure_kd_set, sample_kd_boundary, solver
from kdclassical.families import all_projectors
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


def stacked(system):
    """The stacked-real matrix of the system's projectors |psi_k><psi_k|, which no system keeps, as a reference."""
    return stack_real([np.outer(v, v.conj()) for v in system.states.T])


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
    matrix = stacked(system)
    pinv = np.linalg.pinv(matrix)
    for rho in states(d):
        vec = stack_real([rho]).reshape(-1)
        coeffs = weyl_coefficients(rho)
        x_ref = pinv @ vec
        sol, *_ = np.linalg.lstsq(matrix, vec, rcond=None)
        residual = float(np.linalg.norm(matrix @ sol - vec))
        assert np.abs(system.min_norm_coefficients(coeffs) - x_ref).max() <= 1e-12
        assert abs(system.off_span_distance(coeffs) - residual) <= 1e-12


def test_projector_list_system_has_no_weyl_data():
    projs = [p for fam in pure_kd_set(dft_pair(6)) for p in fam.projectors()]
    by_list, by_families = hull_system(projs), family_system(6)
    assert by_list.weights is None and by_list.pinv_gram is not None
    assert by_families.pinv_gram is None and by_families.kernel is None
    # The list's state vectors give back its projectors; each is a family state up to a phase.
    assert np.abs(stacked(by_list) - stack_real(projs)).max() <= 1e-15
    overlaps = np.abs(np.einsum("ik,ik->k", by_list.states.conj(), by_families.states))
    assert np.abs(overlaps - 1.0).max() <= 1e-15
    # Both Grams are |V^H V|^2 bit for bit; the list's V differs from the
    # families' by phases and rounding, so the Grams differ in the last bits.
    for system in (by_list, by_families):
        assert np.array_equal(system.gram, np.abs(system.states.conj().T @ system.states) ** 2)
    assert np.abs(by_list.gram - by_families.gram).max() <= 8 * np.finfo(float).eps


def test_ginibre_d6_verdicts_are_those_of_the_stacked_gram():
    # The ginibre-d6 benchmark stream (seed 12721). Every sample is a non-member at the
    # same distance against the list-built and the family-built system; the sum and the
    # extremes were recorded when hull systems still kept the stacked A and A^T A.
    by_list, by_families = list_system(6), family_system(6)
    distances = []
    for index in range(250):
        rho = _ginibre_state(_rng(12721, index), 6)
        one, other = hull_membership(rho, by_list), hull_membership(rho, by_families)
        assert not one.member and not other.member
        assert abs(one.distance - other.distance) <= 1e-12
        distances.append(other.distance)
    assert abs(sum(distances) - 76.63668921458381) <= 1e-10
    assert abs(min(distances) - 0.19605923524620106) <= 1e-12
    assert abs(max(distances) - 0.4223987295836358) <= 1e-12


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
    """The distance of a solve without a candidate, computed as ``hull_membership`` computes it."""
    return system.residual(simplex_least_squares(system.gram, system.expectations(rho)), rho)


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
    _, sigma, vt = np.linalg.svd(stacked(system))
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


def list_system(d):
    return hull_system(all_projectors(pure_kd_set(dft_pair(d)))[0])


class CandidateRecorder:
    """Wraps the solver as geometry calls it and keeps each ``candidate`` passed."""

    def __init__(self, monkeypatch):
        self.seen = []
        original = geometry.simplex_least_squares

        def recording(*args, candidate=None, **kwargs):
            self.seen.append(candidate)
            return original(*args, candidate=candidate, **kwargs)

        monkeypatch.setattr(geometry, "simplex_least_squares", recording)


@pytest.mark.parametrize("d", [6, 9, 12])
def test_list_candidate_is_the_lstsq_min_norm_solution(monkeypatch, d):
    system = list_system(d)
    recorder = CandidateRecorder(monkeypatch)
    for rho in states(d):
        vec = stack_real([rho]).reshape(-1)
        want, *_ = np.linalg.lstsq(stacked(system), vec, rcond=None)
        hull_membership(rho, system)
        assert np.abs(recorder.seen[-1] - want).max() <= 1e-12


@pytest.mark.parametrize("d", [6, 9, 12])
def test_list_and_family_systems_give_the_same_verdicts(d):
    by_list, by_families = list_system(d), family_system(d)
    config = SampleConfig(d=d, seed=12721, n_samples=1, mode="perturb")
    basis = kd_real_basis(d)
    # Index 235 at d = 6 is the README's classical state outside the hull.
    extra = [sample_kd_boundary(config, basis, index=235)] if d == 6 else []
    for rho in states(d) + extra:
        one, other = hull_membership(rho, by_list), hull_membership(rho, by_families)
        assert one.member == other.member
        assert abs(one.distance - other.distance) <= 1e-12


def test_a_list_query_builds_no_stacked_matrix(monkeypatch):
    # A list is turned into state vectors, and queried on the rank-one path
    # alone, a state or a stack of them.
    projectors, _ = all_projectors(pure_kd_set(dft_pair(9)))
    rhos = states(9)
    want = [hull_membership(rho, family_system(9)) for rho in rhos]

    def forbidden(*args, **kwargs):
        raise AssertionError("stacked matrix or lstsq")

    monkeypatch.setattr(geometry, "stack_real", forbidden)
    monkeypatch.setattr(np.linalg, "lstsq", forbidden)
    for rho, other, stacked_verdict in zip(rhos, want, hull_membership(np.array(rhos), projectors)):
        one = hull_membership(rho, projectors)
        assert one.member == other.member and abs(one.distance - other.distance) <= 1e-12
        assert stacked_verdict.member == one.member and stacked_verdict.distance == one.distance


@pytest.mark.parametrize("d", [6, 9, 12, 30])
def test_rank_one_system_agrees_with_its_stacked_reference(d):
    # The reference is the stacked layout: h = A^T vec(rho), G = A^T A and
    # the distance ||A x - vec(rho)||, with the same Weyl candidate.
    system = family_system(d)
    matrix = stacked(system)
    gram = matrix.T @ matrix
    assert np.abs(system.gram - gram).max() <= 1e-12
    config = SampleConfig(d=d, seed=12721, n_samples=1, mode="perturb")
    extra = [sample_kd_boundary(config, kd_real_basis(d), index=235)] if d == 6 else []
    for rho in states(d) + extra:
        vec = stack_real([rho]).reshape(-1)
        h = matrix.T @ vec
        assert np.abs(system.expectations(rho) - h).max() <= 1e-12
        weyl = weyl_coefficients(rho)
        candidate = system.min_norm_coefficients(weyl) if system.off_span_distance(weyl) <= 1e-9 else None
        x = simplex_least_squares(gram, h, candidate=candidate)
        reference = float(np.linalg.norm(matrix @ x - vec))
        assert abs(system.residual(x, rho) - reference) <= 1e-12
        verdict = hull_membership(rho, system)
        assert verdict.member == (reference <= 1e-9)
        assert abs(verdict.distance - reference) <= 1e-12
    if d == 6:
        assert 0.0227 < verdict.distance < 0.0229  # sample 235 lies outside the hull


def test_accepted_list_candidate_is_one_kkt_call(monkeypatch):
    system = list_system(6)
    rho, _ = decided_state(family_system(6), 6)
    counter = StepCounter(monkeypatch)
    verdict = hull_membership(rho, system)
    assert counter.calls == 1
    assert verdict.member and abs(verdict.distance - plain_distance(system, rho)) <= 1e-14
    assert verdict.certificate.coefficients.min() >= 0.0


def negative_list_candidate(system, d=6):
    """A decided state, and a ``pinv_gram`` that makes its list candidate x + t v, v in ker G.

    The bad candidate is still stationary and sums to one: only the sign
    check catches it, and the kernel step, which moves within x + ker G, can
    move it back.
    """
    rho, x = decided_state(family_system(d), d)
    h = system.expectations(rho)
    v = null_vector(system)
    bad = system.pinv_gram + np.outer(h, 1.5 * x.max() * v) / (h @ h)  # the candidate is h @ pinv_gram
    assert (h @ bad).min() < -1e-6 and abs((h @ bad).sum() - 1.0) <= 1e-12
    return rho, bad


def test_negative_list_candidate_falls_back_to_the_plain_solver(monkeypatch):
    # With no kernel, nothing but the active set can move the candidate.
    system = list_system(6)
    rho, bad = negative_list_candidate(system)
    counter = StepCounter(monkeypatch)
    verdict = hull_membership(rho, dataclasses.replace(system, pinv_gram=bad, kernel=None))
    assert counter.calls > 2
    assert verdict.distance == plain_distance(system, rho)


def test_negative_list_candidate_is_repaired_by_the_kernel_step(monkeypatch):
    system = list_system(6)
    rho, bad = negative_list_candidate(system)
    reference = plain_distance(system, rho)

    def forbidden(*args, **kwargs):
        raise AssertionError("the active set ran")

    monkeypatch.setattr(solver, "_active_set", forbidden)
    monkeypatch.setattr(solver, "_active_set_stack", forbidden)
    counter = StepCounter(monkeypatch)
    verdict = hull_membership(rho, dataclasses.replace(system, pinv_gram=bad))
    assert counter.calls == 1  # the candidate's KKT step; the repair makes none
    assert verdict.member and abs(verdict.distance - reference) <= 1e-14
    coefficients = verdict.certificate.coefficients
    assert coefficients.min() >= 0.0 and abs(coefficients.sum() - 1.0) <= 1e-12


def test_list_whose_span_lacks_the_identity_falls_back(monkeypatch):
    # The first d - 1 a-basis projectors span the diagonals with a zero last
    # entry. The min-norm coefficients of a diagonal state are its first
    # d - 1 weights, nonnegative and stationary, but they sum to less than one.
    d = 6
    weights = np.arange(1.0, d + 1.0) / (d * (d + 1) / 2)
    rho = np.diag(weights).astype(complex)
    projectors = [np.diag(np.eye(d)[i]).astype(complex) for i in range(d - 1)]
    system = hull_system(projectors)
    recorder = CandidateRecorder(monkeypatch)
    verdict = hull_membership(rho, system)
    assert np.abs(recorder.seen[0] - weights[:-1]).max() <= 1e-15
    assert verdict.distance == plain_distance(system, rho)
    assert abs(verdict.distance - weights[-1] * np.sqrt(d / (d - 1))) <= 1e-15
