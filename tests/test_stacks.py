"""Hull queries in stacks: one active-set loop for many states, against one state at a time.

A stack's verdicts must be those its states get alone, a state whose solve
fails must fail alone, and a bad state in a stack must raise what it raises
alone.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from kdclassical import (
    SampleConfig,
    SolverDidNotConverge,
    dft_pair,
    geometry,
    hull_membership,
    probe_conjecture,
    pure_kd_set,
    sample_kd_boundary,
    solver,
)
from kdclassical.families import all_projectors
from kdclassical.geometry import hull_system, weyl_coefficients
from kdclassical.harness import _ginibre_state, _rng, perturbation_basis, stack_height
from kdclassical.solver import _MIN_STACK, simplex_least_squares


def family_system(d):
    return hull_system(pure_kd_set(dft_pair(d)))


def ginibre(d, n, seed=12721):
    return [_ginibre_state(_rng(seed, i), d) for i in range(n)]


def perturbed(d, indices, seed=12721):
    config = SampleConfig(d=d, seed=seed, n_samples=1, mode="perturb")
    basis = perturbation_basis(None, dft_pair(d))
    return [sample_kd_boundary(config, basis, index=i) for i in indices]


class LoopRows:
    """Records how many rows each call of the stacked loop is given."""

    def __init__(self, monkeypatch):
        self.rows = []
        original = solver._active_set_stack

        def recorded(gram, h, todo, max_iter, out):
            self.rows.append(len(todo))
            return original(gram, h, todo, max_iter, out)

        monkeypatch.setattr(solver, "_active_set_stack", recorded)


def solver_inputs(system, rhos, tol=1e-9):
    """h and the Weyl candidate (NaN off the span) of each state, as hull_membership makes them."""
    h = np.array([system.expectations(rho) for rho in rhos])
    candidate = np.full(h.shape, np.nan)
    for row, rho in zip(candidate, rhos):
        weyl = weyl_coefficients(rho)
        if system.off_span_distance(weyl) <= tol:
            row[:] = system.min_norm_coefficients(weyl)
    return h, candidate


def iterations_needed(gram, h):
    """The smallest max_iter with which the single loop converges on h."""
    for cap in range(1, 10 * len(h) + 100):
        try:
            simplex_least_squares(gram, h, max_iter=cap)
            return cap
        except SolverDidNotConverge:
            continue
    raise AssertionError("no cap was enough")


@pytest.mark.parametrize("d", [6, 9, 12])
def test_a_stack_gives_each_state_its_single_verdict(d, monkeypatch):
    # Ginibre states lie off the span, so the Weyl step decides none of them;
    # it decides most perturbation states. The two are interleaved.
    system = family_system(d)
    rhos = [rho for pair in zip(ginibre(d, 12), perturbed(d, range(12))) for rho in pair]
    loop = LoopRows(monkeypatch)
    stacked = hull_membership(np.array(rhos), system)
    h, candidate = solver_inputs(system, rhos)
    x = simplex_least_squares(system.gram, h, candidate=candidate)
    assert len(loop.rows) == 2 and _MIN_STACK <= loop.rows[0] < len(rhos)  # mixed: some rows decided, most not
    for rho, verdict, h_row, c_row, x_row in zip(rhos, stacked, h, candidate, x):
        alone = hull_membership(rho, system)
        assert verdict.member == alone.member
        assert abs(verdict.distance - alone.distance) <= 1e-15
        x_alone = simplex_least_squares(system.gram, h_row, candidate=None if np.isnan(c_row).all() else c_row)
        assert np.abs(x_row - x_alone).max() <= 1e-12
        if alone.member:
            assert np.abs(verdict.certificate.coefficients - alone.certificate.coefficients).max() <= 1e-12


class SolverResults:
    """Records the x of every solve hull_membership makes."""

    def __init__(self, monkeypatch):
        self.x = []
        real = geometry.simplex_least_squares

        def recorded(gram, h, max_iter=None, candidate=None):
            x = real(gram, h, max_iter, candidate)
            self.x.append(x)
            return x

        monkeypatch.setattr(geometry, "simplex_least_squares", recorded)


@pytest.mark.parametrize("d", [6, 9, 30])
def test_a_single_state_is_a_stack_of_one(d, monkeypatch):
    # Every d = 30 probe sends its states as stacks of one, and kd member a
    # single state: the two must agree to the last bit, off the span (a
    # Ginibre state, solved by the active set) and on it (a perturbation
    # state, decided by the Weyl step).
    assert stack_height(30) == 1
    system = family_system(d)
    states = {"off span": ginibre(d, 1)[0], "in span": perturbed(d, [0])[0]}
    for where, rho in states.items():
        near = system.off_span_distance(weyl_coefficients(rho)) <= 1e-9
        assert near == (where == "in span")
        solves = SolverResults(monkeypatch)
        alone = hull_membership(rho, system)
        (stacked,) = hull_membership(rho[None], system)
        x_alone, x_stacked = solves.x
        n = len(system.gram)
        assert x_alone.shape == (n,) and x_stacked.shape == (1, n)  # a single state's h goes in 1-D
        assert np.array_equal(x_alone, x_stacked[0])
        assert stacked.distance == alone.distance
        assert stacked.member == alone.member == near
        if alone.member:
            assert np.array_equal(stacked.certificate.coefficients, alone.certificate.coefficients)


def test_readme_sample_235_in_its_probe_stack():
    # At n_samples = 236 the last stack of 52 holds samples 208-235; at 250, samples 208-249.
    system = family_system(6)
    for last in (236, 250):
        rhos = perturbed(6, range(208, last))
        verdict = hull_membership(np.array(rhos), system)[235 - 208]
        alone = hull_membership(rhos[235 - 208], system)
        assert not verdict.member and not alone.member
        assert abs(verdict.distance - alone.distance) <= 1e-15
        assert abs(verdict.distance - 0.022795728761780557) <= 1e-12


def test_sample_235_margin_does_not_depend_on_the_probe_length(tmp_path):
    margins = []
    for n in (236, 250):
        report = probe_conjecture(SampleConfig(d=6, seed=12721, n_samples=n, mode="perturb"), out_dir=tmp_path / str(n))
        manifest = json.loads((tmp_path / str(n) / "manifest.json").read_text())
        assert [c["sample_index"] for c in manifest["candidates"]] == [235]
        assert report.solver_failures == 0
        margins.append(manifest["candidates"][0]["margin"])
    assert abs(margins[0] - margins[1]) <= 1e-15


def test_a_row_at_the_iteration_cap_fails_alone(monkeypatch):
    system = family_system(6)
    h = np.array([system.expectations(rho) for rho in ginibre(6, 10)])
    need = np.array([iterations_needed(system.gram, row) for row in h])
    cap = int(need.max()) - 1
    assert np.count_nonzero(need > cap) == 1  # one row alone needs more iterations than the cap
    loop = LoopRows(monkeypatch)
    x = simplex_least_squares(system.gram, h, max_iter=cap)
    assert loop.rows == [10]
    for row, x_row, needed in zip(h, x, need):
        # A stack of one fails as a row of NaN; a 1-D h raises with the loop's message.
        (x_one,) = simplex_least_squares(system.gram, row[None], max_iter=cap)
        if needed > cap:
            assert np.isnan(x_row).all() and np.isnan(x_one).all()
            with pytest.raises(SolverDidNotConverge, match=f"^no optimality certificate after {cap} iterations$"):
                simplex_least_squares(system.gram, row, max_iter=cap)
        else:
            x_alone = simplex_least_squares(system.gram, row, max_iter=cap)
            assert np.array_equal(x_one, x_alone)
            assert np.abs(x_row - x_alone).max() <= 1e-12


def test_a_failed_row_is_none_and_the_probe_counts_it_alone(monkeypatch):
    rhos = ginibre(6, 12)
    system = family_system(6)
    need = np.array([iterations_needed(system.gram, system.expectations(rho)) for rho in rhos])
    cap = int(need.max()) - 1
    assert np.count_nonzero(need > cap) == 1
    real = geometry.simplex_least_squares

    def capped(gram, h, max_iter=None, candidate=None):
        return real(gram, h, cap, candidate)

    monkeypatch.setattr(geometry, "simplex_least_squares", capped)
    verdicts = hull_membership(np.array(rhos), system)
    for rho, verdict, needed in zip(rhos, verdicts, need):
        if needed > cap:
            assert verdict is None
            assert hull_membership(rho[None], system) == [None]
            with pytest.raises(SolverDidNotConverge, match=f"^no optimality certificate after {cap} iterations$"):
                hull_membership(rho, system)
        else:
            assert verdict.distance == hull_membership(rho, system).distance
    report = probe_conjecture(SampleConfig(d=6, seed=12721, n_samples=12, mode="ginibre"))
    assert report.solver_failures == 1
    assert report.counts == {"classical_and_member": 0, "classical_not_member": 0, "not_classical": 12}


def _bad_state(kind, good):
    if kind == "non-Hermitian":
        return good + 1e-6 * np.triu(np.ones(good.shape), 1)
    if kind == "non-finite":
        bad = good.copy()
        bad[2, 3] = np.nan
        return bad
    if kind == "non-unit trace":
        return 2.0 * good
    return np.eye(4) / 4  # another dimension


@pytest.mark.parametrize("kind", ["non-Hermitian", "non-finite", "non-unit trace", "dimension"])
def test_a_bad_state_in_a_stack_raises_what_it_raises_alone(kind):
    system = family_system(6)
    good = ginibre(6, 6)
    bad = _bad_state(kind, good[3])
    with pytest.raises(Exception) as alone:
        hull_membership(bad, system)
    stack = good[:3] + [bad] + good[4:]
    # States of two dimensions make no array; the stack is then a list.
    with pytest.raises(type(alone.value)) as stacked:
        hull_membership(stack if kind == "dimension" else np.array(stack), system)
    assert str(stacked.value) == str(alone.value)


def test_a_stack_needs_a_system_built_from_families():
    projectors, _ = all_projectors(pure_kd_set(dft_pair(6)))
    with pytest.raises(ValueError, match="families"):
        hull_membership(np.array(ginibre(6, 2)), projectors)


@pytest.mark.parametrize("shape", [(), (0,), (2, 0), (2, 1, 3)])
def test_h_is_one_right_hand_side_or_a_stack_of_them(shape):
    # A 3-D h would otherwise be read as a stack and come back as its first row.
    with pytest.raises(ValueError):
        simplex_least_squares(np.eye(3), np.full(shape, 0.1))


def test_stack_heights_from_the_byte_budget():
    assert [stack_height(d) for d in (6, 9, 12, 30)] == [52, 41, 6, 1]
