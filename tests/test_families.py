from __future__ import annotations

import numpy as np
import pytest

from kdclassical import (
    BadDimension,
    BadFactorization,
    IndexOutOfRange,
    WrongFamilyKind,
    basis_projector,
    build_family,
    classicality,
    dft_pair,
    factorizations,
    family_identity_sums,
    kd_table,
    psi_state,
    psi_state_b_form,
    pure_kd_set,
    support_counts,
)
from kdclassical.families import PureFamily, family_states, lettered_families, prime_pair


def test_factorizations():
    assert factorizations(9) == [(1, 9), (3, 3), (9, 1)]
    assert factorizations(6) == [(1, 6), (2, 3), (3, 2), (6, 1)]
    assert len(factorizations(12)) == 6
    assert factorizations(1) == [(1, 1)]
    with pytest.raises(ValueError):
        factorizations(0)


def test_psi_state_d4_p2q2():
    v = psi_state(dft_pair(4), 2, 2, 0, 0)
    want = np.zeros(4, dtype=complex)
    want[0] = want[2] = 1 / np.sqrt(2)
    assert np.abs(v - want).max() <= 1e-15


def test_psi_state_degenerate_is_basis_vector():
    v = psi_state(dft_pair(6), 6, 1, 3, 0)
    want = np.zeros(6, dtype=complex)
    want[3] = 1.0
    assert np.abs(v - want).max() <= 1e-15


def test_psi_state_b_family_is_b_column():
    pair = dft_pair(5)
    for s in range(5):
        assert np.abs(psi_state(pair, 1, 5, 0, s) - pair.transition[:, s]).max() <= 1e-12


@pytest.mark.parametrize("d", [4, 6, 9, 10])
def test_a_side_equals_b_side_with_phase(d):
    pair = dft_pair(d)
    for p, q in factorizations(d):
        for m in range(p):
            for s in range(q):
                a_form = psi_state(pair, p, q, m, s)
                b_form = psi_state_b_form(pair, p, q, m, s)
                assert np.abs(a_form - b_form).max() <= 1e-12


def test_phase_explicit_d4():
    # (m,s) = (1,1) at p = q = 2: b-side carries the global phase w_4^{-1} = -1j,
    # giving (-1j/sqrt(2)) (|b_1> - |b_3>) = (0, 1, 0, -1)/sqrt(2).
    pair = dft_pair(4)
    want = np.array([0, 1, 0, -1], dtype=complex) / np.sqrt(2)
    assert np.abs(psi_state(pair, 2, 2, 1, 1) - want).max() <= 1e-12
    assert np.abs(psi_state_b_form(pair, 2, 2, 1, 1) - want).max() <= 1e-12


def test_psi_state_validation():
    pair = dft_pair(6)
    with pytest.raises(BadFactorization):
        psi_state(pair, 4, 2, 0, 0)
    with pytest.raises(IndexOutOfRange):
        psi_state(pair, 2, 3, 2, 0)
    with pytest.raises(IndexOutOfRange):
        psi_state(pair, 2, 3, 0, 3)


def test_member_table_d6():
    pair = dft_pair(6)
    proj = build_family(pair, 2, 3).projector(1, 2)
    values = kd_table(proj, pair).values
    nonzero = np.abs(values) > 1e-12
    assert nonzero.sum() == 6
    assert np.abs(values[nonzero] - 1 / 6).max() <= 1e-12
    # support rows are i = 1 mod 2, columns j = 2 mod 3
    rows, cols = np.where(nonzero)
    assert set(rows) == {1, 3, 5}
    assert set(cols) == {2, 5}


def test_pure_kd_set_counts_and_labels():
    fams9 = pure_kd_set(dft_pair(9))
    assert [f.label for f in fams9] == ["B", "PSI(3,3)", "A"]
    assert sum(f.states.shape[1] for f in fams9) == 27

    fams6 = pure_kd_set(dft_pair(6))
    assert [f.label for f in fams6] == ["B", "PSI(2,3)", "PHI(3,2)", "A"]
    assert sum(f.states.shape[1] for f in fams6) == 24

    fams5 = pure_kd_set(dft_pair(5))
    assert [f.label for f in fams5] == ["B", "A"]
    assert sum(f.states.shape[1] for f in fams5) == 10


def test_degenerate_families_match_basis_projectors():
    pair = dft_pair(6)
    fams = {f.label: f for f in pure_kd_set(pair)}
    for i in range(6):
        assert np.abs(fams["A"].projector(i, 0) - basis_projector(pair, "a", i)).max() <= 1e-14
        assert np.abs(fams["B"].projector(0, i) - basis_projector(pair, "b", i)).max() <= 1e-12


@pytest.mark.parametrize("d", list(range(1, 13)))
def test_every_member_is_classical_with_d_uniform_cells(d):
    pair = dft_pair(d)
    for fam in pure_kd_set(pair):
        for k in range(fam.p * fam.q):
            table = kd_table(fam.projector(*divmod(k, fam.q)), pair)
            assert table.values.real.min() >= -1e-12
            assert np.abs(table.values.imag).max() <= 1e-12
            cells = np.abs(table.values - 1.0 / d) <= 1e-12
            assert cells.sum() == d
            assert np.abs(table.values[~cells]).max() <= 1e-12 if d > 1 else True
            n_a, n_b = support_counts(fam.states[:, k], pair)
            assert n_a * n_b == d
            assert (n_a, n_b) == (fam.q, fam.p)


def test_identity_sum_examples():
    pair9 = dft_pair(9)
    fam9 = build_family(pair9, 3, 3)
    lhs = sum(fam9.projector(0, s) for s in range(3))
    rhs = sum(basis_projector(pair9, "a", k) for k in (0, 3, 6))
    assert np.abs(lhs - rhs).max() <= 1e-12

    pair6 = dft_pair(6)
    fam6 = build_family(pair6, 2, 3)
    lhs = sum(fam6.projector(m, 1) for m in range(2))
    rhs = basis_projector(pair6, "b", 1) + basis_projector(pair6, "b", 4)
    assert np.abs(lhs - rhs).max() <= 1e-12

    pair4 = dft_pair(4)
    fam4 = build_family(pair4, 2, 2)
    total = sum(fam4.projectors())
    assert np.abs(total - np.eye(4)).max() <= 1e-12


@pytest.mark.parametrize("d", [4, 6, 9, 10, 15])
def test_family_identity_reports(d):
    for fam in pure_kd_set(dft_pair(d)):
        if fam.label in ("A", "B"):
            with pytest.raises(WrongFamilyKind):
                family_identity_sums(fam)
        else:
            report = family_identity_sums(fam)
            assert report.max_dev <= 1e-12


@pytest.mark.parametrize("d", [4, 6, 9, 12, 15, 16])
def test_identity_sums_equal_the_sums_of_dense_projectors(d):
    # The reference adds one dense projector at a time; the stacked sums add the same products in the same order.
    pair = dft_pair(d)
    for fam in pure_kd_set(pair):
        if fam.label in ("A", "B"):
            continue
        p, q = fam.p, fam.q
        a_dev = max(
            float(np.abs(sum(fam.projector(m, s) for s in range(q)) - sum(basis_projector(pair, "a", k * p + m) for k in range(q))).max())
            for m in range(p)
        )
        b_dev = max(
            float(np.abs(sum(fam.projector(m, s) for m in range(p)) - sum(basis_projector(pair, "b", l * q + s) for l in range(p))).max())
            for s in range(q)
        )
        report = family_identity_sums(fam)
        assert (report.a_side_max_dev, report.b_side_max_dev) == (a_dev, b_dev)


def test_identity_sums_catch_swapped_members():
    fam = build_family(dft_pair(6), 2, 3)

    def swapped(j, k):
        states = fam.states.copy()
        states[:, [j, k]] = states[:, [k, j]]
        return family_identity_sums(PureFamily(label=fam.label, dim=6, p=2, q=3, states=states))

    # Members (0, 1) and (1, 1), columns 1 and 4, share their b-side class s = 1 but not their a-side class.
    report = swapped(1, 4)
    assert report.a_side_max_dev >= 0.1 and report.b_side_max_dev <= 1e-12 and report.max_dev >= 0.1
    # Members (0, 1) and (0, 2) share their a-side class m = 0 but not their b-side class.
    report = swapped(1, 2)
    assert report.a_side_max_dev <= 1e-12 and report.b_side_max_dev >= 0.1


def test_classicality_of_families_matches_engine():
    pair = dft_pair(10)
    for fam in pure_kd_set(pair):
        for proj in fam.projectors():
            assert classicality(kd_table(proj, pair)).classical


def test_prime_pair_only_for_two_distinct_primes():
    assert prime_pair(6) == (2, 3) and prime_pair(15) == (3, 5) and prime_pair(35) == (5, 7)
    for d in (1, 2, 4, 5, 8, 9, 12, 18, 27, 30):
        assert prime_pair(d) is None


def test_lettered_families_name_a_transposed_pair():
    pair = dft_pair(6)
    fams = lettered_families(pair)
    assert list(fams) == ["A", "B", "C", "D"]
    assert [(f.p, f.q) for f in fams.values()] == [(6, 1), (1, 6), (2, 3), (3, 2)]
    assert [f.label for f in fams.values()] == ["A", "B", "PSI(2,3)", "PHI(3,2)"]
    assert list(lettered_families(dft_pair(15), "DB")) == ["D", "B"]
    assert lettered_families(dft_pair(15), "D")["D"].label == "PHI(5,3)"
    for d in (5, 8, 12):
        assert set(lettered_families(dft_pair(d), "AB")) == {"A", "B"}
        with pytest.raises(BadDimension):
            lettered_families(dft_pair(d), "C")
        with pytest.raises(BadDimension):
            lettered_families(dft_pair(d), "D")
    with pytest.raises(ValueError):
        lettered_families(pair, "E")


def test_family_labels_follow_the_member_order():
    pair = dft_pair(6)
    assert build_family(pair, 6, 1).labels()[:2] == ["A[0]", "A[1]"]
    assert build_family(pair, 1, 6).labels()[:2] == ["B[0]", "B[1]"]
    assert build_family(pair, 2, 3).labels()[:4] == ["PSI(2,3)[0,0]", "PSI(2,3)[0,1]", "PSI(2,3)[0,2]", "PSI(2,3)[1,0]"]


@pytest.mark.parametrize("d", range(2, 31))
def test_vectorised_build_is_bit_identical_to_psi_state_and_outer(d):
    pair = dft_pair(d)
    for p, q in factorizations(d):
        family = build_family(pair, p, q)
        for m in range(p):
            for s in range(q):
                v = psi_state(pair, p, q, m, s)
                assert np.array_equal(family.states[:, m * q + s], v)
                assert np.array_equal(family.projector(m, s), np.outer(v, v.conj()))
        assert np.array_equal(family_states(d, p, q), family.states)
    with pytest.raises(BadFactorization):
        family_states(d, d + 1, 1)


def test_family_states_are_read_only():
    family = build_family(dft_pair(6), 2, 3)
    assert family.states.shape == (6, 6) and not family.states.flags.writeable
    assert not family_states(6, 3, 2).flags.writeable  # cached: every caller shares the matrix
    with pytest.raises(ValueError):
        family.states[0, 0] = 0.0


def test_lettered_families_refuse_a_repeated_letter():
    with pytest.raises(ValueError, match="named twice"):
        lettered_families(dft_pair(6), "AA")
    with pytest.raises(ValueError, match="named twice"):
        lettered_families(dft_pair(6), "BCB")
