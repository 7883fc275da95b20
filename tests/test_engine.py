from __future__ import annotations

import numpy as np
import pytest

from kdclassical import (
    KDTable,
    MixedDimensions,
    NotHermitian,
    NotNormalized,
    Tolerances,
    basis_projector,
    build_family,
    classicality,
    dft_pair,
    is_kd_real,
    kd_table,
    pure_classicality_criterion,
    pure_kd_set,
    support_counts,
)


def brute_force_table(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Independent evaluation from explicit bra-kets, one cell at a time."""
    d = rho.shape[0]
    out = np.zeros((d, d), dtype=complex)
    for i in range(d):
        a_i = np.zeros(d, dtype=complex)
        a_i[i] = 1.0
        for j in range(d):
            b_j = u[:, j]
            out[i, j] = (b_j.conj() @ a_i) * (a_i.conj() @ rho @ b_j)
    return out


def random_density(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def haar_state(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("d", [4, 6, 9])
def test_kd_table_matches_brute_force(d):
    rng = np.random.default_rng(100 + d)
    pair = dft_pair(d)
    for _ in range(5):
        rho = random_density(rng, d)
        table = kd_table(rho, pair)
        assert np.abs(table.values - brute_force_table(rho, pair.transition)).max() <= 1e-13


def test_kd_table_uniform_state():
    for d in (3, 5, 8):
        table = kd_table(np.eye(d) / d, dft_pair(d))
        assert np.abs(table.values - 1.0 / d**2).max() <= 1e-14


def test_kd_table_basis_state_rows():
    pair = dft_pair(4)
    table = kd_table(basis_projector(pair, "a", 0), pair)
    assert np.abs(table.values[0] - 0.25).max() <= 1e-14
    assert np.abs(table.values[1:]).max() <= 1e-14


def test_kd_table_psi00_d4_support():
    # (|a_0> + |a_2>)/sqrt(2): table is 1/4 on even-even cells, 0 elsewhere
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[2] = 1 / np.sqrt(2)
    pair = dft_pair(4)
    table = kd_table(np.outer(psi, psi.conj()), pair)
    oracle = brute_force_table(np.outer(psi, psi.conj()), pair.transition)
    assert np.abs(table.values - oracle).max() <= 1e-14
    for i in range(4):
        for j in range(4):
            want = 0.25 if (i % 2 == 0 and j % 2 == 0) else 0.0
            assert abs(table.values[i, j] - want) <= 1e-12


def test_kd_table_errors():
    pair = dft_pair(3)
    with pytest.raises(MixedDimensions):
        kd_table(np.eye(4) / 4, pair)
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(NotHermitian):
        kd_table(bad, pair)


@pytest.mark.parametrize("d", [4, 6, 9])
def test_marginal_identities(d):
    rng = np.random.default_rng(200 + d)
    pair = dft_pair(d)
    for _ in range(25):
        rho = random_density(rng, d)
        table = kd_table(rho, pair)
        assert abs(table.values.sum() - 1.0) <= 1e-10
        assert np.abs(table.row_sums() - rho.diagonal()).max() <= 1e-10
        b_diag = (pair.transition.conj().T @ rho @ pair.transition).diagonal()
        assert np.abs(table.col_sums() - b_diag).max() <= 1e-10
        assert abs(table.source_trace - 1.0) <= 1e-12


def test_classicality_uniform():
    verdict = classicality(kd_table(np.eye(5) / 5, dft_pair(5)))
    assert verdict.classical
    assert verdict.witness is None
    assert verdict.min_real >= 0.0


def test_classicality_superposition_not_classical():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[1] = 1 / np.sqrt(2)
    verdict = classicality(kd_table(np.outer(psi, psi.conj()), dft_pair(4)))
    assert not verdict.classical
    assert verdict.witness is not None


def test_classicality_family_member_d9():
    fam = build_family(dft_pair(9), 3, 3)
    verdict = classicality(kd_table(fam.projector(0, 1), dft_pair(9)))
    assert verdict.classical


def test_classicality_witness_lexicographic():
    values = np.zeros((2, 2), dtype=complex)
    values[0, 1] = -0.5
    values[1, 0] = -0.5  # tied violation; (0,1) is lexicographically first
    verdict = classicality(KDTable(dim=2, values=values, source_trace=-1.0))
    assert verdict.witness == (0, 1)
    assert verdict.min_real == -0.5


def test_classicality_respects_tolerances():
    values = np.full((2, 2), 0.25, dtype=complex)
    values[1, 1] = 0.25 - 1e-6
    values[0, 0] = 0.25 + 1e-6 - 1e-3 * 1j
    table = KDTable(dim=2, values=values, source_trace=1.0)
    assert not classicality(table).classical
    assert classicality(table, Tolerances(classicality=1e-2)).classical


def test_support_counts_examples():
    pair6 = dft_pair(6)
    e3 = np.zeros(6, dtype=complex)
    e3[3] = 1.0
    assert support_counts(e3, pair6) == (1, 6)

    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[2] = 1 / np.sqrt(2)
    assert support_counts(psi, dft_pair(4)) == (2, 2)

    uniform = np.full(5, 1 / np.sqrt(5), dtype=complex)
    assert support_counts(uniform, dft_pair(5)) == (5, 1)


def test_support_counts_requires_normalization():
    with pytest.raises(NotNormalized):
        support_counts(np.array([1.0, 1.0]), dft_pair(2))


def test_support_counts_refuses_a_vector_of_another_dimension():
    with pytest.raises(MixedDimensions):
        support_counts(np.array([1.0, 0.0, 0.0]), dft_pair(2))


def test_pure_criterion_examples():
    pair9 = dft_pair(9)
    for m in range(3):
        for s in range(3):
            fam = build_family(pair9, 3, 3)
            assert pure_classicality_criterion(fam.states[:, m * 3 + s], pair9)

    b2 = dft_pair(6).transition[:, 2]
    assert pure_classicality_criterion(b2, dft_pair(6))

    psi = np.zeros(4, dtype=complex)
    psi[:3] = 1 / np.sqrt(3)
    assert not pure_classicality_criterion(psi, dft_pair(4))


@pytest.mark.parametrize("d", [4, 6, 9])
def test_pure_criterion_matches_classicality(d):
    pair = dft_pair(d)
    rng = np.random.default_rng(300 + d)
    # Haar-like samples: classical ==> product criterion (vacuous in practice,
    # asserted anyway); enumerated members: both must hold.
    for _ in range(200):
        psi = haar_state(rng, d)
        table_classical = classicality(kd_table(np.outer(psi, psi.conj()), pair)).classical
        if table_classical:
            assert pure_classicality_criterion(psi, pair)
    for fam in pure_kd_set(pair):
        for k in range(fam.p * fam.q):
            assert pure_classicality_criterion(fam.states[:, k], pair)
            assert classicality(kd_table(fam.projector(*divmod(k, fam.q)), pair)).classical


def test_is_kd_real_cases():
    pair5 = dft_pair(5)
    assert is_kd_real(np.eye(5), pair5)
    f = basis_projector(pair5, "a", 0) + 2.0 * basis_projector(pair5, "b", 3)
    assert is_kd_real(f, pair5)

    g = np.zeros((3, 3), dtype=complex)
    g[0, 1] = 1j
    g[1, 0] = -1j
    assert not is_kd_real(g, dft_pair(3))
