from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import nnls

from kdclassical import (
    BadDimension,
    ConditionsFailed,
    MixedDimensions,
    NotClassical,
    NotInSpan,
    NotUnitTrace,
    SampleConfig,
    Tolerances,
    basis_projector,
    build_family,
    decompose_p2,
    decompose_pq_three,
    dft_pair,
    hull_membership,
    kd_real_basis,
    kd_table,
    pure_kd_set,
    quadruple_conditions_p2,
    quadruple_violation,
    sample_kd_boundary,
    span_project,
)
from kdclassical.families import all_projectors, lettered_families, prime_pair
from kdclassical.geometry import hull_system, reconstruct, stack_real
from kdclassical.solver import simplex_least_squares


def brute_force_quadruples(values: np.ndarray, p: int) -> float:
    """All residue-constrained quadruples, four explicit loops."""
    d = p * p
    q = values.real
    worst = 0.0
    for i in range(d):
        for k in range(i % p, d, p):
            for j in range(d):
                for l in range(d):
                    worst = max(worst, abs(q[i, j] + q[k, l] - q[i, l] - q[k, j]))
    for j in range(d):
        for l in range(j % p, d, p):
            for i in range(d):
                for k in range(d):
                    worst = max(worst, abs(q[i, j] + q[k, l] - q[i, l] - q[k, j]))
    return worst


def kkt_optimality_gap(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    """Worst KKT violation of a simplex-constrained least-squares solution."""
    grad = a.T @ (a @ x - b)
    support = x > 1e-10
    nu = float(grad[support].mean())
    stationarity = float(np.abs(grad[support] - nu).max())
    dual = float(max(0.0, -(grad[~support] - nu).min())) if (~support).any() else 0.0
    primal = abs(float(x.sum()) - 1.0) + float(max(0.0, -x.min()))
    return max(stationarity, dual, primal)


def hull_point(rng, projectors):
    w = rng.dirichlet(np.ones(len(projectors)))
    return sum(wi * p for wi, p in zip(w, projectors))


# ---------------------------------------------------------------- span_project


def test_span_project_member_of_span():
    pair = dft_pair(6)
    projs, _ = all_projectors(pure_kd_set(pair))
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(len(projs))
    target = sum(c * p for c, p in zip(coeffs, projs))
    projection, residual = span_project(target, projs)
    assert residual <= 1e-12
    assert np.abs(projection - target).max() <= 1e-11


def test_span_project_single_projector_oracle():
    # Best real multiple of b_0 approximating a_0: x* = tr(a0 b0) / tr(b0 b0),
    # residual^2 = 1 - 2 x* tr(a0 b0) + x*^2; evaluated independently.
    for d in (2, 5, 9):
        pair = dft_pair(d)
        a0 = basis_projector(pair, "a", 0)
        b0 = basis_projector(pair, "b", 0)
        overlap = float(np.trace(a0 @ b0).real)
        x_star = overlap / float(np.trace(b0 @ b0).real)
        want = np.sqrt(1.0 - 2.0 * x_star * overlap + x_star**2)
        projection, residual = span_project(a0, [b0])
        assert abs(residual - want) <= 1e-12
        assert np.abs(projection - x_star * b0).max() <= 1e-12
        assert abs(want - np.sqrt(1.0 - 1.0 / d**2)) <= 1e-12


def test_span_project_kd_real_operator_in_family_span():
    rng = np.random.default_rng(1)
    basis = kd_real_basis(6)
    f = sum(rng.standard_normal() * m for m in basis)
    projs, _ = all_projectors(pure_kd_set(dft_pair(6)))
    _, residual = span_project(f, projs)
    assert residual <= 1e-10


def test_span_project_empty_list():
    rho = np.eye(3) / 3
    projection, residual = span_project(rho, [])
    assert np.abs(projection).max() == 0.0
    assert abs(residual - np.linalg.norm(rho)) <= 1e-14


# ------------------------------------------------------------------ quadruples


def test_quadruple_uniform_true():
    table = kd_table(np.eye(9) / 9, dft_pair(9))
    assert quadruple_conditions_p2(table, 3)
    assert brute_force_quadruples(table.values, 3) <= 1e-14


def test_quadruple_family_member_true():
    pair = dft_pair(9)
    proj = build_family(pair, 3, 3).projector(0, 1)
    table = kd_table(proj, pair)
    assert quadruple_conditions_p2(table, 3)
    assert brute_force_quadruples(table.values, 3) <= 1e-12


def test_quadruple_random_state_false_matches_brute_force():
    rng = np.random.default_rng(2)
    pair = dft_pair(9)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    v /= np.linalg.norm(v)
    table = kd_table(np.outer(v, v.conj()), pair)
    fast = quadruple_violation(table, 3)
    slow = brute_force_quadruples(table.values, 3)
    assert fast > 1e-3
    assert abs(fast - slow) <= 1e-12
    assert not quadruple_conditions_p2(table, 3)


def test_quadruple_violation_matches_brute_force_d4():
    rng = np.random.default_rng(3)
    pair = dft_pair(4)
    for _ in range(5):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho /= rho.trace().real
        table = kd_table(rho, pair)
        assert abs(quadruple_violation(table, 2) - brute_force_quadruples(table.values, 2)) <= 1e-12


def test_quadruple_wrong_dimension():
    with pytest.raises(BadDimension):
        quadruple_conditions_p2(kd_table(np.eye(6) / 6, dft_pair(6)), 2)


def test_quadruple_sees_nonrepresentative_pairs():
    # rows 3 and 6 violate against each other twice as hard as either does
    # against row 0; the violation must be the pairwise maximum
    from kdclassical.engine import KDTable

    values = np.full((9, 9), 1 / 81, dtype=complex)
    values[3, 0] += 0.01
    values[6, 0] -= 0.01
    table = KDTable(dim=9, values=values, source_trace=1.0)
    assert abs(quadruple_violation(table, 3) - 0.02) <= 1e-12
    assert abs(brute_force_quadruples(values, 3) - 0.02) <= 1e-12


# ---------------------------------------------------------------- decompose_p2


def test_decompose_p2_uniform():
    pair = dft_pair(9)
    cert = decompose_p2(np.eye(9) / 9, pair, 3)
    assert cert.residual <= 1e-12
    assert abs(cert.coefficient_sum - 1.0) <= 1e-9
    by_label = dict(zip(cert.labels, cert.coefficients))
    for m in range(3):
        for s in range(3):
            assert abs(by_label[f"PSI(3,3)[{m},{s}]"] - 1 / 9) <= 1e-12
    for i in range(9):
        assert by_label[f"A[{i}]"] == 0.0
        assert by_label[f"B[{i}]"] == 0.0


def test_decompose_p2_basis_mixture():
    pair = dft_pair(9)
    rho = (basis_projector(pair, "a", 0) + basis_projector(pair, "b", 0)) / 2
    cert = decompose_p2(rho, pair, 3)
    by_label = dict(zip(cert.labels, cert.coefficients))
    assert abs(by_label["A[0]"] - 0.5) <= 1e-10
    assert abs(by_label["B[0]"] - 0.5) <= 1e-10
    others = [c for l, c in by_label.items() if l not in ("A[0]", "B[0]")]
    assert max(others) <= 1e-10
    assert cert.residual <= 1e-10


def test_decompose_p2_vertex():
    pair = dft_pair(9)
    rho = build_family(pair, 3, 3).projector(1, 2)
    cert = decompose_p2(rho, pair, 3)
    by_label = dict(zip(cert.labels, cert.coefficients))
    assert abs(by_label["PSI(3,3)[1,2]"] - 1.0) <= 1e-10
    assert cert.residual <= 1e-10


def test_decompose_p2_reconstruction_on_hull_points():
    rng = np.random.default_rng(4)
    pair = dft_pair(4)
    projs, _ = all_projectors(pure_kd_set(pair))
    for _ in range(30):
        rho = hull_point(rng, projs)
        cert = decompose_p2(rho, pair, 2)
        assert cert.residual <= 1e-9
        assert cert.coefficients.min() >= 0.0
        assert abs(cert.coefficient_sum - 1.0) <= 1e-9


def test_decompose_p2_rejects_nonclassical():
    pair = dft_pair(9)
    v = np.zeros(9, dtype=complex)
    v[0] = v[1] = 1 / np.sqrt(2)
    with pytest.raises(NotClassical):
        decompose_p2(np.outer(v, v.conj()), pair, 3)


def test_decompose_p2_conditions_failed_path():
    # A symmetric bump on one gcd-3 chain cell violates the quadruple
    # identities about 1.7x harder than it disturbs the imaginary parts,
    # so a scaled bump passes classicality but fails the quadruple gate.
    pair = dft_pair(9)
    bump = np.zeros((9, 9), dtype=complex)
    bump[0, 3] = bump[3, 0] = 1.0
    rho = np.eye(9) / 9 + 8e-9 * bump
    table = kd_table(rho, pair)
    assert np.abs(table.values.imag).max() <= 1e-9
    assert table.values.real.min() >= 0.0
    assert quadruple_violation(table, 3) > 1e-9
    with pytest.raises(ConditionsFailed):
        decompose_p2(rho, pair, 3)


def test_decompose_p2_wrong_dimension():
    with pytest.raises(BadDimension):
        decompose_p2(np.eye(6) / 6, dft_pair(6), 2)


# --------------------------------------------------------- decompose_pq_three


def test_pq_three_uniform():
    cert = decompose_pq_three(np.eye(6) / 6, dft_pair(6))
    assert cert.residual <= 1e-10
    assert cert.coefficients.min() >= 0.0
    assert abs(cert.coefficient_sum - 1.0) <= 1e-9


def test_pq_three_vertex():
    pair = dft_pair(6)
    rho = build_family(pair, 3, 2).projector(1, 0)
    cert = decompose_pq_three(rho, pair)
    by_label = dict(zip(cert.labels, cert.coefficients))
    assert abs(by_label["PHI(3,2)[1,0]"] - 1.0) <= 1e-10
    assert sum(c for l, c in by_label.items() if l != "PHI(3,2)[1,0]") <= 1e-10
    assert cert.residual <= 1e-9


def test_pq_three_known_mixture():
    pair = dft_pair(6)
    rho = 0.5 * build_family(pair, 2, 3).projector(0, 1) + 0.5 * basis_projector(
        pair, "b", 2
    )
    cert = decompose_pq_three(rho, pair)
    by_label = dict(zip(cert.labels, cert.coefficients))
    assert abs(by_label["PSI(2,3)[0,1]"] - 0.5) <= 1e-9
    assert abs(by_label["B[2]"] - 0.5) <= 1e-9
    assert cert.residual <= 1e-9


@pytest.mark.parametrize("sets", [("B", "C", "D"), ("A", "C", "D"), ("A", "B", "C"), ("A", "B", "D")])
def test_pq_three_all_subsets_roundtrip(sets):
    pair = dft_pair(6)
    fams = {f.label[0] if f.label in ("A", "B") else ("C" if f.label.startswith("PSI") else "D"): f
            for f in pure_kd_set(pair)}
    projs = [p for name in sets for p in fams[name].projectors()]
    rng = np.random.default_rng(sum(map(ord, sets)))
    for _ in range(25):
        rho = hull_point(rng, projs)
        cert = decompose_pq_three(rho, pair, sets=sets)
        assert cert.residual <= 1e-9
        assert cert.coefficients.min() >= 0.0
        assert abs(cert.coefficient_sum - 1.0) <= 1e-9


def test_pq_three_not_in_span():
    pair = dft_pair(6)
    with pytest.raises(NotInSpan):
        decompose_pq_three(basis_projector(pair, "a", 0), pair, sets=("B", "C", "D"))


def test_pq_three_not_classical():
    pair = dft_pair(6)
    rho = 1.3 * basis_projector(pair, "b", 0) - 0.3 * basis_projector(pair, "b", 1)
    with pytest.raises(NotClassical):
        decompose_pq_three(rho, pair)


def test_pq_three_validation():
    pair = dft_pair(6)
    with pytest.raises(ValueError):
        decompose_pq_three(np.eye(6) / 6, pair, sets=("B", "B", "C"))
    with pytest.raises(BadDimension):
        decompose_pq_three(np.eye(9) / 9, dft_pair(9))


# ------------------------------------------------------------- hull_membership


def test_membership_trivial_convex_combination():
    rng = np.random.default_rng(8)
    projs, labels = all_projectors(pure_kd_set(dft_pair(6)))
    rho = hull_point(rng, projs)
    verdict = hull_membership(rho, projs, labels=labels)
    assert verdict.member
    assert verdict.distance <= 1e-10
    assert verdict.certificate is not None
    assert abs(verdict.certificate.coefficient_sum - 1.0) <= 1e-9


def test_membership_nonclassical_state_excluded():
    pair = dft_pair(9)
    v = np.zeros(9, dtype=complex)
    v[:2] = 1 / np.sqrt(2)
    rho = np.outer(v, v.conj())
    projs, _ = all_projectors(pure_kd_set(pair))
    verdict = hull_membership(rho, projs)
    assert not verdict.member
    assert verdict.distance > 1e-3
    assert verdict.certificate is None


def test_membership_uniform_vs_a_alone():
    pair = dft_pair(5)
    projs = [basis_projector(pair, "a", i) for i in range(5)]
    verdict = hull_membership(np.eye(5) / 5, projs)
    assert verdict.member
    assert np.abs(verdict.certificate.coefficients - 0.2).max() <= 1e-9


def test_membership_requires_unit_trace():
    projs = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    with pytest.raises(NotUnitTrace):
        hull_membership(np.eye(2), projs)


def test_membership_kkt_certified_and_nnls_cross_checked():
    rng = np.random.default_rng(9)
    pair = dft_pair(9)
    projs, _ = all_projectors(pure_kd_set(pair))
    mat = stack_real(projs)
    states = [hull_point(rng, projs) for _ in range(4)]
    for _ in range(4):
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        rho = g @ g.conj().T
        states.append(rho / rho.trace().real)
    for rho in states:
        vec = stack_real([rho]).reshape(-1)
        x = simplex_least_squares(mat.T @ mat, mat.T @ vec)
        dist = float(np.linalg.norm(mat @ x - vec))
        assert kkt_optimality_gap(mat, vec, x) <= 1e-9
        # scipy on the trace-augmented system relaxes the constraint, so its
        # residual lower-bounds the constrained optimum; rescaling its
        # solution onto the simplex upper-bounds it.
        aug = np.vstack([mat, np.ones((1, mat.shape[1]))])
        x_ref, r_ref = nnls(aug, np.append(vec, 1.0))
        assert dist >= r_ref - 1e-9
        feasible = x_ref / x_ref.sum()
        assert dist <= np.linalg.norm(mat @ feasible - vec) + 1e-9


def test_membership_agrees_with_decompose_at_d9():
    rng = np.random.default_rng(10)
    pair = dft_pair(9)
    projs, _ = all_projectors(pure_kd_set(pair))
    for _ in range(20):
        rho = hull_point(rng, projs)
        verdict = hull_membership(rho, projs)
        cert = decompose_p2(rho, pair, 3)
        assert verdict.member
        assert cert.residual <= 1e-9


@pytest.mark.parametrize("d", [4, 9])
def test_hull_membership_equals_classical_plus_quadruple(d):
    p = {4: 2, 9: 3}[d]
    pair = dft_pair(d)
    projs, _ = all_projectors(pure_kd_set(pair))
    rng = np.random.default_rng(40 + d)
    for _ in range(200):
        rho = hull_point(rng, projs)
        table = kd_table(rho, pair)
        member = hull_membership(rho, projs).member
        conditions = (
            table.values.real.min() >= -1e-9
            and np.abs(table.values.imag).max() <= 1e-9
            and quadruple_conditions_p2(table, p)
        )
        assert member and conditions
    for _ in range(50):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        table = kd_table(rho, pair)
        member = hull_membership(rho, projs).member
        conditions = (
            table.values.real.min() >= -1e-9
            and np.abs(table.values.imag).max() <= 1e-9
            and quadruple_conditions_p2(table, p)
        )
        assert not member and not conditions


def test_custom_tolerances_respected():
    pair = dft_pair(4)
    projs, _ = all_projectors(pure_kd_set(pair))
    rng = np.random.default_rng(12)
    rho = hull_point(rng, projs)
    strict = Tolerances(recon=1e-30)
    assert not hull_membership(rho, projs, strict).member


def test_solver_iteration_cap():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((8, 6))
    b = rng.standard_normal(8)
    from kdclassical import SolverDidNotConverge

    with pytest.raises(SolverDidNotConverge):
        simplex_least_squares(a.T @ a, a.T @ b, max_iter=0)


def test_reconstruct_matches_the_sum_of_weighted_projectors():
    from kdclassical.geometry import reconstruct

    projs, _ = all_projectors(pure_kd_set(dft_pair(9)))
    coeffs = np.random.default_rng(8).standard_normal(len(projs))
    expected = np.zeros((9, 9), dtype=complex)
    for c, p in zip(coeffs, projs):
        expected += c * p
    assert np.abs(reconstruct(projs, coeffs) - expected).max() <= 1e-14


@pytest.mark.parametrize("p", [2, 3])
def test_decompose_p2_vector_residual_matches_the_projector_sum(p):
    from kdclassical.geometry import reconstruct

    d = p * p
    pair = dft_pair(d)
    projs = (
        [basis_projector(pair, "a", i) for i in range(d)]
        + [basis_projector(pair, "b", j) for j in range(d)]
        + build_family(pair, p, p).projectors()
    )
    config = SampleConfig(d=d, seed=31, n_samples=8, mode="perturb")
    basis = kd_real_basis(d)
    for index in range(8):
        rho = sample_kd_boundary(config, basis, index=index)
        cert = decompose_p2(rho, pair, p)
        expected = float(np.linalg.norm(reconstruct(projs, cert.coefficients) - rho))
        assert abs(cert.residual - expected) <= 1e-15


def test_decompose_p2_certificate_labels():
    cert = decompose_p2(np.eye(4) / 4, dft_pair(4), 2)
    assert cert.labels[:5] == ("A[0]", "A[1]", "A[2]", "A[3]", "B[0]")
    assert cert.labels[8:] == ("PSI(2,2)[0,0]", "PSI(2,2)[0,1]", "PSI(2,2)[1,0]", "PSI(2,2)[1,1]")


def test_pq_three_needs_two_distinct_primes():
    # d = 8 has two nontrivial factorizations, (2,4) and (4,2), but 4 is not prime.
    with pytest.raises(BadDimension):
        decompose_pq_three(np.eye(8) / 8, dft_pair(8))


def lstsq_pq_three(rho, pair, sets):
    """Coefficients and residual of the stacked-projector route, as a reference.

    The span coefficients come from ``lstsq`` over the dense projectors of the
    chosen families; the per-class fold is written out case by case.
    """
    d = pair.dim
    p, q = prime_pair(d)
    fams = lettered_families(pair, sets)
    projectors = [proj for name in sets for proj in fams[name].projectors()]
    coeffs, *_ = np.linalg.lstsq(stack_real(projectors), stack_real([rho]).reshape(-1), rcond=None)
    parts = dict(zip(sets, np.split(coeffs, 3)))
    idx = np.arange(d)
    if "C" in parts and "D" in parts:
        gamma, eta = parts["C"].reshape(p, q), parts["D"].reshape(q, p)
        if "B" in parts:
            g0, e0 = gamma.min(axis=0), eta.min(axis=0)
            parts["C"], parts["D"] = (gamma - g0[None, :]).reshape(-1), (eta - e0[None, :]).reshape(-1)
            parts["B"] = parts["B"] + g0[idx % q] + e0[idx % p]
        else:
            g0, e0 = gamma.min(axis=1), eta.min(axis=1)
            parts["C"], parts["D"] = (gamma - g0[:, None]).reshape(-1), (eta - e0[:, None]).reshape(-1)
            parts["A"] = parts["A"] + g0[idx % p] + e0[idx % q]
    else:
        name = "C" if "C" in parts else "D"
        fp, fq = (p, q) if name == "C" else (q, p)
        l0 = np.array([parts["A"][m::fp].min() for m in range(fp)])
        u0 = np.array([parts["B"][s::fq].min() for s in range(fq)])
        parts["A"] = parts["A"] - l0[idx % fp]
        parts["B"] = parts["B"] - u0[idx % fq]
        parts[name] = parts[name] + (l0[:, None] + u0[None, :]).reshape(-1)
    coeffs = np.concatenate([parts[name] for name in sets])
    coeffs = np.maximum(np.where(np.abs(coeffs) < max(1e-14, len(coeffs) * 1e-16), 0.0, coeffs), 0.0)
    return coeffs, float(np.linalg.norm(reconstruct(projectors, coeffs) - rho))


@pytest.mark.parametrize("d", [6, 10, 15])
@pytest.mark.parametrize("sets", ["BCD", "ACD", "ABC", "ABD"])
def test_pq_three_certificate_matches_the_stacked_lstsq_route(d, sets):
    pair = dft_pair(d)
    states = hull_system(list(lettered_families(pair, sets).values())).states
    rng = np.random.default_rng(d)
    rhos = [np.eye(d) / d] + [(states * rng.dirichlet(np.ones(3 * d))) @ states.conj().T for _ in range(3)]
    for rho in rhos:
        cert = decompose_pq_three(rho, pair, sets=tuple(sets))
        coeffs, residual = lstsq_pq_three(rho, pair, tuple(sets))
        assert np.abs(cert.coefficients - coeffs).max() <= 1e-12
        assert abs(cert.residual - residual) <= 1e-12 and cert.residual <= 1e-12


def test_pq_three_rejects_a_state_of_another_dimension():
    with pytest.raises(MixedDimensions):
        decompose_pq_three(np.eye(10) / 10, dft_pair(6))


@pytest.mark.parametrize("source", ["families", "list", "system"])
def test_membership_rejects_a_state_of_another_dimension(source):
    families = pure_kd_set(dft_pair(6))
    hull = {"families": families, "list": all_projectors(families)[0], "system": hull_system(families)}[source]
    with pytest.raises(MixedDimensions):
        hull_membership(np.eye(10) / 10, hull)
