"""The kernel step: a min-norm candidate that fails the sign test moves within x0 + ker G before the active set runs.

Every x in x0 + ker G has the same A x and the same gradient, so the step
can only change the sign test's verdict; the KKT test still decides.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from kdclassical import SampleConfig, dft_pair, kd_real_basis, pure_kd_set, sample_kd_boundary, solver
from kdclassical.families import all_projectors
from kdclassical.geometry import hull_membership, hull_system
from kdclassical.harness import _ginibre_state, _rng
from kdclassical.solver import _FEAS_TOL, _feasible_and_stationary_rows, _kernel_step, simplex_least_squares


def list_system(d):
    return hull_system(all_projectors(pure_kd_set(dft_pair(d)))[0])


def certify_states(d, seed, n=200):
    """The states of the certify benchmark workload: perturbation draws at ``seed``, indices 0 to n - 1."""
    config = SampleConfig(d=d, seed=seed, n_samples=n, mode="perturb")
    basis = kd_real_basis(d)
    return [sample_kd_boundary(config, basis, index=i) for i in range(n)]


def problem(system, rho):
    """(gram, h, candidate) as ``hull_membership`` hands them to the solver for a list-built system."""
    h = system.expectations(rho)
    return system.gram, h, np.matmul(h[None, None], system.pinv_gram)[0, 0]


def failing(system, states):
    """The (gram, h, candidate) of the states whose candidate fails the sign test."""
    out = [problem(system, rho) for rho in states]
    return [p for p in out if p[2].min() < -_FEAS_TOL]


@pytest.mark.parametrize("seed", [12721, 90217])
def test_no_certify_d9_state_reaches_the_active_set(monkeypatch, seed):
    system = list_system(9)
    states = certify_states(9, seed)
    assert len(failing(system, states)) >= 40  # the step has work to do at these seeds

    def forbidden(*args, **kwargs):
        raise AssertionError("the active set ran")

    monkeypatch.setattr(solver, "_active_set", forbidden)
    monkeypatch.setattr(solver, "_active_set_stack", forbidden)
    for rho in states:
        verdict = hull_membership(rho, system)
        assert verdict.member and verdict.distance <= 1e-9
        certificate = verdict.certificate
        assert certificate.residual <= 1e-9 and abs(certificate.coefficient_sum - 1.0) <= 1e-9
        assert certificate.coefficients.min() >= 0.0


@pytest.mark.parametrize("d", [6, 9])
def test_the_step_does_not_depend_on_the_kernel_basis(d):
    system = list_system(d)
    rng = np.random.default_rng(d)
    q, _ = np.linalg.qr(rng.standard_normal((system.kernel.shape[1],) * 2))
    rotated = system.kernel @ q
    cases = failing(system, certify_states(d, 12721, 60))
    assert cases
    alone = []
    for gram, h, candidate in cases:
        alone.append(simplex_least_squares(gram, h, candidate=candidate, kernel=system.kernel))
        assert np.abs(simplex_least_squares(gram, h, candidate=candidate, kernel=rotated) - alone[-1]).max() <= 1e-13
    # A stack moves each row as it moves alone.
    stacked = simplex_least_squares(cases[0][0], np.array([c[1] for c in cases]), candidate=np.array([c[2] for c in cases]), kernel=system.kernel)
    assert np.array_equal(stacked, np.array(alone))


@pytest.mark.parametrize("d", [6, 9])
def test_a_bogus_kernel_changes_no_verdict(d):
    # Random columns move x off x0 + ker G, so the moved x fails stationarity
    # and the row runs the active set as it would with no kernel.
    system = list_system(d)
    bogus = dataclasses.replace(system, kernel=np.random.default_rng(7).standard_normal(system.kernel.shape))
    plain = dataclasses.replace(system, kernel=None)
    states = certify_states(d, 12721, 60)
    assert failing(system, states)
    for rho in states:
        one, other = hull_membership(rho, bogus), hull_membership(rho, plain)
        assert one.member == other.member and one.distance == other.distance
        if one.member:
            assert np.array_equal(one.certificate.coefficients, other.certificate.coefficients)


def count_solves(monkeypatch, limit=10):
    """Record the size of each np.linalg.solve call; more than ``limit`` calls fail, so a step that loops cannot hang."""
    calls = []
    original = np.linalg.solve

    def counted(a, b):
        calls.append(len(b))
        assert len(calls) <= limit, "the step did not terminate"
        return original(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


def test_a_rank_deficient_pinned_set_terminates(monkeypatch):
    # A Ginibre state against the d = 9 list: its third round pins four columns
    # whose kernel rows have rank 3, np.linalg.solve still returns, and the round
    # pins no new column, so a step without its stopping rules repeats it forever.
    system = list_system(9)
    gram, h, candidate = problem(system, _ginibre_state(_rng(5, 0), 9))
    calls = count_solves(monkeypatch)
    out = np.full(len(h), -1.0)
    assert not _kernel_step(gram, h, candidate, system.kernel, out)
    assert calls == [2, 3, 4] and (out == -1.0).all()
    # Two equal kernel rows: K_P K_P^T is singular to the last bit and solve raises.
    kernel, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((8, 3)))
    kernel[1] = kernel[0]
    z = np.array([-0.1, -0.1, 0.3, 0.3, 0.2, 0.2, 0.1, 0.1])
    calls.clear()
    assert not _kernel_step(np.eye(8), np.zeros(8), z, kernel, out)
    assert calls == [2]


def test_the_step_gives_up_on_more_pins_than_the_kernel_has(monkeypatch):
    rng = np.random.default_rng(4)
    kernel, _ = np.linalg.qr(rng.standard_normal((8, 2)))
    z = np.array([-0.1, -0.1, -0.1, 0.3, 0.3, 0.3, 0.2, 0.1])
    calls = count_solves(monkeypatch)
    assert not _kernel_step(np.eye(8), np.zeros(8), z, kernel, np.empty(8))
    assert calls == []


def test_non_member_stays_a_non_member_at_the_family_distance(monkeypatch):
    # Index 235 at d = 6 is the README's classical state outside the hull. Its
    # second round leaves the worst entry lower than the first did, so the step
    # stops after two solves, where the pin count alone would allow a third.
    config = SampleConfig(d=6, seed=12721, n_samples=1, mode="perturb")
    rho = sample_kd_boundary(config, kd_real_basis(6), index=235)
    system, by_families = list_system(6), hull_membership(rho, hull_system(pure_kd_set(dft_pair(6))))
    calls = count_solves(monkeypatch)
    by_list = hull_membership(rho, system)
    assert calls == [4, 7]
    assert not by_list.member and not by_families.member
    assert abs(by_list.distance - by_families.distance) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_candidate_with_a_kernel_falls_back(bad):
    system = list_system(6)
    gram, h, candidate = failing(system, certify_states(6, 12721, 20))[0]
    candidate = candidate.copy()
    candidate[int(candidate.argmin())] = bad
    plain = simplex_least_squares(gram, h)
    assert np.array_equal(simplex_least_squares(gram, h, candidate=candidate, kernel=system.kernel), plain)


def test_one_row_kkt_test_matches_the_stacked_one():
    # A stack of one takes the scalar path; two copies take the stacked one.
    system = list_system(6)
    cases = [problem(system, rho) for rho in certify_states(6, 12721, 30)]
    rng = np.random.default_rng(5)
    for gram, h, z in cases[:10]:
        for defect in (np.nan, np.inf, -np.inf):
            bad = z.copy()
            bad[rng.integers(len(z))] = defect
            cases.append((gram, h, bad))
        cases.append((gram, h, z * (1.0 + 1e-9)))  # off the simplex's sum
        cases.append((gram, h, z + 1e-7 * rng.standard_normal(len(z))))  # not stationary
    verdicts = []
    for gram, h, z in cases:
        one = _feasible_and_stationary_rows(gram, h[None], z[None])
        two = _feasible_and_stationary_rows(gram, np.stack([h, h]), np.stack([z, z]))
        assert one.shape == (1,) and one.dtype == bool
        assert one[0] == two[0] == two[1]
        verdicts.append(bool(one[0]))
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize(
    "projectors",
    [
        [np.diag([np.nan, 1.0]), np.eye(2)],
        [np.diag([np.inf, 0.0]), np.eye(2)],
        [np.eye(2), np.eye(3)],
        [np.ones((2, 3))],
        [np.diag([1.0, 0.0]), np.eye(2) / 2],
        [np.diag([1.0, -1.0])],
        [np.diag([1.0, 0.0]), np.zeros((2, 2))],
        [-np.eye(2)],
    ],
    ids=["nan", "inf", "ragged", "non-square", "rank-2", "indefinite", "zero", "negative"],
)
def test_a_bad_projector_list_is_refused_before_the_eigensolver(monkeypatch, projectors):
    def forbidden(*args, **kwargs):
        raise AssertionError("eigh ran")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    with pytest.raises(ValueError):
        hull_system(projectors)
