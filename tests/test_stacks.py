"""Hull queries in stacks: one active-set loop for many states, against one state at a time.

A stack's verdicts must be those its states get alone, a state whose solve
fails must fail alone, and a bad state in a stack must raise what it raises
alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from kdclassical import (
    NotHermitian,
    SampleConfig,
    SolverDidNotConverge,
    dft_pair,
    geometry,
    hull_membership,
    kd_table,
    probe_conjecture,
    pure_kd_set,
    sample_kd_boundary,
    solver,
)
from kdclassical.families import all_projectors
from kdclassical.geometry import hull_system, weyl_coefficients
from kdclassical.harness import _generators, _ginibre_states, perturbation_basis, setup_bytes, stack_height
from kdclassical.linalg import matrix_to_json
from kdclassical.solver import _FEAS_TOL, _MIN_STACK, _FreeSetFactor, _FreeSetStack, _solve_free, simplex_least_squares


def family_system(d):
    return hull_system(pure_kd_set(dft_pair(d)))


def ginibre(d, n, seed=12721):
    return list(_ginibre_states(_generators(seed, 0, n), d))


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

    def no_kernel():  # the candidate alone, with no kernel step
        return np.empty((len(system.gram), 0))

    x = simplex_least_squares(system.gram, h, candidate=candidate, kernel=no_kernel)
    assert len(loop.rows) == 2 and _MIN_STACK <= loop.rows[0] < len(rhos)  # mixed: some rows decided, most not
    for rho, verdict, h_row, c_row, x_row in zip(rhos, stacked, h, candidate, x):
        alone = hull_membership(rho, system)
        assert verdict.member == alone.member
        assert abs(verdict.distance - alone.distance) <= 1e-15
        x_alone = simplex_least_squares(system.gram, h_row, candidate=c_row, kernel=no_kernel)
        assert np.abs(x_row - x_alone).max() <= 1e-12
        if alone.member:
            assert np.abs(verdict.certificate.coefficients - alone.certificate.coefficients).max() <= 1e-12


@pytest.mark.parametrize("d", [6, 9])
def test_a_list_built_stack_gives_each_state_its_single_verdict(d, monkeypatch):
    # A system built from a projector list has no Weyl data: its candidate is
    # pinv_gram @ h, per row, which the kernel step may repair. At d = 6, 9 of
    # the 24 rows still run the active set, in one stacked loop; at d = 9, none.
    system = hull_system(all_projectors(pure_kd_set(dft_pair(d)))[0])
    assert system.weights is None and system.kernel.size
    rhos = [rho for pair in zip(ginibre(d, 12), perturbed(d, range(12))) for rho in pair]
    loop = LoopRows(monkeypatch)
    stacked = hull_membership(np.array(rhos), system)
    assert loop.rows == {6: [9], 9: []}[d]
    for rho, verdict in zip(rhos, stacked):
        alone = hull_membership(rho, system)
        assert verdict.member == alone.member
        assert verdict.distance == alone.distance
        if alone.member:
            assert np.array_equal(verdict.certificate.coefficients, alone.certificate.coefficients)


class SolverResults:
    """Records the x of every solve hull_membership makes."""

    def __init__(self, monkeypatch):
        self.x = []
        real = geometry.simplex_least_squares

        def recorded(gram, h, max_iter=None, candidate=None, kernel=None):
            x = real(gram, h, max_iter, candidate, kernel)
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
    # The probe's second stack at d = 6 starts at stack_height(6) = 157: it
    # holds samples 157-235 at n_samples = 236, and samples 157-249 at 250.
    first = stack_height(6)
    assert first == 157
    system = family_system(6)
    for last in (236, 250):
        rhos = perturbed(6, range(first, last))
        verdict = hull_membership(np.array(rhos), system)[235 - first]
        alone = hull_membership(rhos[235 - first], system)
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


def test_a_row_past_the_drop_cap_fails_alone(monkeypatch):
    # One row's zeroed columns are never downdated out of its factor, so its
    # step stays negative and it drops round after round: past the cap of
    # n + 10 rounds it is NaN, with a None verdict, and every other row keeps
    # the x of its single solve.
    system = family_system(6)
    rhos = ginibre(6, 12)
    h, n = system.expectations(np.array(rhos)), len(system.gram)
    drops = []
    drop = _FreeSetFactor.drop
    monkeypatch.setattr(_FreeSetFactor, "drop", lambda self, i: drops.append(i) or drop(self, i))
    singles = []
    for row in h:
        drops.clear()
        singles.append((simplex_least_squares(system.gram, row), len(drops)))
    monkeypatch.undo()
    victim = next(r for r, (_, dropped) in enumerate(singles) if dropped)
    victim_passes = []
    downdate = _FreeSetStack._downdate

    def no_drops_for_the_victim(self, rows, i):
        others = self.ids[rows] != victim
        if not others.all():
            victim_passes.append(1)
            assert len(victim_passes) <= 2 * n * (n + 10)  # more than any capped run: the loop has no cap
        if others.any():
            downdate(self, rows[others], i[others])

    monkeypatch.setattr(_FreeSetStack, "_downdate", no_drops_for_the_victim)
    x = simplex_least_squares(system.gram, h)
    victim_passes.clear()
    verdicts = hull_membership(np.array(rhos), system)
    monkeypatch.undo()
    assert len(victim_passes) >= n + 10
    for r, ((x_alone, _), verdict) in enumerate(zip(singles, verdicts)):
        if r == victim:
            assert np.isnan(x[r]).all() and verdict is None
        else:
            assert np.array_equal(x[r], x_alone)
            assert verdict.distance == hull_membership(rhos[r], system).distance


def test_a_failed_row_is_none_and_the_probe_counts_it_alone(monkeypatch):
    rhos = ginibre(6, 12)
    system = family_system(6)
    need = np.array([iterations_needed(system.gram, system.expectations(rho)) for rho in rhos])
    cap = int(need.max()) - 1
    assert np.count_nonzero(need > cap) == 1
    real = geometry.simplex_least_squares

    def capped(gram, h, max_iter=None, candidate=None, kernel=None):
        return real(gram, h, cap, candidate, kernel)

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


@pytest.mark.parametrize("shape", [(), (0,), (2, 0), (2, 1, 3)])
def test_h_is_one_right_hand_side_or_a_stack_of_them(shape):
    # A 3-D h would otherwise be read as a stack and come back as its first row.
    with pytest.raises(ValueError):
        simplex_least_squares(np.eye(3), np.full(shape, 0.1))


def test_stack_heights_from_the_byte_budget():
    assert [stack_height(d) for d in (6, 9, 12, 16, 30)] == [157, 125, 18, 14, 1]
    for families in (0, -1):  # no projectors to estimate
        with pytest.raises(ValueError, match="at least one family"):
            setup_bytes(6, "span-rank", families)


@pytest.mark.parametrize("d", [2, 6, 9, 12, 30])
def test_a_stack_of_states_gets_each_table_it_gets_alone(d):
    pair = dft_pair(d)
    states = _ginibre_states(_generators(12721, 0, 5), d)
    tables = kd_table(states, pair)
    assert tables.values.shape == states.shape and tables.source_trace.shape == (len(states),)
    assert tables.dim == d and not tables.values.flags.writeable
    for rho, values, trace in zip(states, tables.values, tables.source_trace):
        alone = kd_table(rho, pair)
        assert np.array_equal(values, alone.values) and trace == alone.source_trace
    with pytest.raises(NotHermitian):  # one bad state fails the whole stack, as it fails alone
        kd_table(np.concatenate([states, 1j * states[:1]]), pair)


@pytest.mark.parametrize("d", [1, 6, 12])
def test_ginibre_draws_in_a_stack_are_the_single_draws(d):
    # The seeded draw of each index, g g^H / tr with g = N + iN' from its own
    # generator, as the benchmark re-derives it.
    stack = _ginibre_states(_generators(12721, 0, 8), d)
    for i, rho in enumerate(stack):
        rng = np.random.default_rng(np.random.SeedSequence(12721, spawn_key=(i,)))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert np.array_equal(rho, (g @ g.conj().T) / (g @ g.conj().T).trace().real)
        assert np.array_equal(rho, _ginibre_states(_generators(12721, i, i + 1), d)[0])


def assert_rows_zero_past_their_diagonal(b):
    # Buffer row r is [u_r, w_r, R_r.] with R lower triangular, so it is zero
    # past column r + 2: append writes a new row only up to there, and a
    # downdate leaves the rotated padding of a short chain in the row that
    # leaves the free set, which the next append then reuses.
    r, c = np.ogrid[: b.shape[1], : b.shape[2]]
    assert not b[:, c > r + 2].any()


def test_rows_drop_together_as_each_drops_alone(monkeypatch):
    # Eight rows of five free columns over one Gram whose column 12 nearly
    # repeats column 0, each with a point x on its free set, and the step z
    # of that set: every row's step has a negative entry, so all eight drop
    # in one iteration. Row 2's point puts two of its three blocking
    # variables at one ratio, 1/2, and row 7 holds columns 0 and 12, so its
    # factor is invalid and is rebuilt.
    rng = np.random.default_rng(1)
    a = rng.standard_normal((10, 12))
    a = np.hstack([a, a[:, :1] + 1e-9 * rng.standard_normal((10, 1))])
    gram, h, n = a.T @ a, rng.standard_normal((8, 10)) @ a, 13
    free = np.array([rng.choice(12, size=5, replace=False) for _ in range(8)])
    free[7, :2] = [0, 12]
    x = np.zeros((8, n + 1))
    for r in range(8):
        x[r, free[r]] = rng.dirichlet(np.ones(5))
    stack = _FreeSetStack(gram, h, np.arange(8))
    for j in free.T:
        stack.append(j)
    z, nu = stack.solve()
    x[2, free[2, 2:4]] = -z[2, 2:4]
    stack.x = x.copy()
    assert stack.valid.tolist() == [True] * 7 + [False] and (z[2] < 0).sum() == 3

    calls = []
    downdate, rebuild = _FreeSetStack._downdate, _FreeSetFactor.rebuild
    monkeypatch.setattr(_FreeSetStack, "_downdate", lambda self, rows, i: calls.append(rows.tolist()) or downdate(self, rows, i))
    monkeypatch.setattr(_FreeSetFactor, "rebuild", lambda self, cols: calls.append("rebuild") or rebuild(self, cols))
    dropping = np.flatnonzero(z.min(axis=1) < -_FEAS_TOL)
    assert dropping.tolist() == list(range(8))
    assert stack.drop_blocking(dropping, z, nu) == []
    monkeypatch.undo()
    assert len(calls[0]) == 7 and 2 in calls[1] and "rebuild" in calls  # seven downdate at once; row 2 twice

    for r in range(8):
        factor = _FreeSetFactor(gram, h[r])
        for j in free[r]:
            factor.append(j)
        step, nu_r = _solve_free(gram, h[r], factor.free, factor)
        x_r = x[r, :n].copy()
        step, nu_r = solver._drop_blocking(gram, h[r], x_r, factor, step, nu_r)
        k = factor.k
        assert stack.k[r] == k and np.array_equal(stack.cols[r], np.r_[factor.free, [n] * (n - k)])
        assert np.array_equal(z[r], np.r_[step, np.zeros(5 - k)]) and nu[r] == nu_r
        assert np.array_equal(stack.x[r], np.r_[x_r, 0.0]) and stack.valid[r] == factor.valid
        if factor.valid:
            assert np.array_equal(stack.b[r, :k, : k + 2], factor.b[:k, : k + 2])
            assert stack.uu[r] == factor.uu and stack.uw[r] == factor.uw
    assert stack.k[2] <= 3  # both tied variables left
    assert_rows_zero_past_their_diagonal(stack.b)
    stack.keep(np.ones(8, dtype=bool))
    stack.append(np.array([np.setdiff1d(np.arange(n), stack.cols[r, : stack.k[r]])[0] for r in range(8)]))
    assert_rows_zero_past_their_diagonal(stack.b)


def test_free_sets_that_outgrow_two_doublings_get_their_single_solves(monkeypatch):
    # Ginibre states at d = 12 (n = 72) reach free sets of 40 columns, so the
    # stack's buffers double from 16 to 32 and to 64 wide.
    system = family_system(12)
    h = system.expectations(np.array(ginibre(12, 16)))
    widths, drops = set(), []
    append, drop_blocking = _FreeSetStack.append, _FreeSetStack.drop_blocking

    def checked_append(self, j):
        append(self, j)
        widths.add(self.b.shape[1])
        assert_rows_zero_past_their_diagonal(self.b)

    def checked_drop_blocking(self, rows, z, nu):
        drops.append(len(rows))
        failed = drop_blocking(self, rows, z, nu)
        assert_rows_zero_past_their_diagonal(self.b)
        return failed

    monkeypatch.setattr(_FreeSetStack, "append", checked_append)
    monkeypatch.setattr(_FreeSetStack, "drop_blocking", checked_drop_blocking)
    x = simplex_least_squares(system.gram, h)
    monkeypatch.undo()
    assert sorted(widths) == [16, 32, 64] and drops
    for row, x_row in zip(h, x):
        assert np.array_equal(x_row, simplex_least_squares(system.gram, row))


def test_probes_and_member_leave_numpy_ma_out(tmp_path):
    # np.unique imports numpy.ma, about 0.8 MB of resident memory on the first probe call.
    path = tmp_path / "state.json"
    path.write_text(json.dumps(matrix_to_json(ginibre(6, 1)[0])), encoding="utf-8")
    code = (
        "import sys, kdclassical\n"
        "from kdclassical.cli import run\n"
        "for mode in ('ginibre', 'perturb'):\n"
        "    kdclassical.probe_conjecture(kdclassical.SampleConfig(d=6, seed=12721, n_samples=40, mode=mode))\n"
        f"run(['member', '--state', {str(path)!r}])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(solver.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.splitlines()[-1] == "False"
