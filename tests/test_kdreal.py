from __future__ import annotations

import inspect
import math

import numpy as np
import pytest

from kdclassical import (
    NotHermitian,
    b_side_condition,
    dft_pair,
    entry_partition,
    is_kd_real,
    kd_real_basis,
    kd_real_condition,
    kd_real_dimension,
    real_span_rank,
    render_partition,
)
from kdclassical.verify import EQUIVALENCE_SEED, hermitian_parameter_basis, hermitian_sample_battery


def totient(n: int) -> int:
    """Euler's phi from the prime factors of n."""
    phi, rest, p = n, n, 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            phi -= phi // p
        p += 1
    return phi - phi // rest if rest > 1 else phi


def test_category_counts():
    assert entry_partition(5).category_count == 3
    assert entry_partition(9).category_count == 7
    assert entry_partition(6).category_count == 7


def test_d6_real_categories():
    part = entry_partition(6)
    real_cats = [c for c in part.categories if c.is_real]
    assert len(real_cats) == 3
    assert all(len(c.cells) == 2 and not c.conjugate_cells for c in real_cats)
    assert {frozenset(c.cells) for c in real_cats} == {
        frozenset({(0, 3), (3, 0)}),
        frozenset({(1, 4), (4, 1)}),
        frozenset({(2, 5), (5, 2)}),
    }


def test_d9_gcd3_grouping():
    part = entry_partition(9)
    cat = next(c for c in part.categories if (0, 3) in c.cells)
    assert set(cat.cells) == {(0, 3), (3, 6), (6, 0)}
    assert set(cat.conjugate_cells) == {(0, 6), (3, 0), (6, 3)}
    assert not cat.is_real
    assert (cat.step, cat.residue) == (3, 0)


@pytest.mark.parametrize("d", list(range(2, 33)))
def test_partition_covers_offdiagonal_once(d):
    part = entry_partition(d)
    seen: list[tuple[int, int]] = []
    for cat in part.categories:
        seen.extend(cat.cells)
        seen.extend(cat.conjugate_cells)
    assert len(seen) == d * d - d
    assert len(set(seen)) == len(seen)
    assert all(i != j for i, j in seen)


@pytest.mark.parametrize("d", [4, 6, 9, 12, 15])
def test_chain_length_law(d):
    for cat in entry_partition(d).categories:
        assert len(cat.cells) == d // math.gcd(cat.step, d)
        assert cat.residue == min(i for i, _ in cat.cells)
        assert cat.step <= d - cat.step


def test_condition_diagonal_and_circulant():
    assert kd_real_condition(np.diag([1.0, 2.0, 3.0]).astype(complex))
    # Hermitian circulant at d=5: first row (r0, c1, c2, conj c2, conj c1)
    c = [2.0, 1.0 + 2.0j, 3.0 - 1.0j]
    first = np.array([c[0], c[1], c[2], np.conj(c[2]), np.conj(c[1])])
    circ = np.array([np.roll(first, k) for k in range(5)])
    assert np.abs(circ - circ.conj().T).max() <= 1e-15
    assert kd_real_condition(circ)


def test_condition_d6_unequal_half_shift_pair():
    # The gcd-3 cells at d=6 must satisfy F_03 = F_30, which together with
    # Hermiticity forces them real; an imaginary value breaks the equality.
    f = np.zeros((6, 6), dtype=complex)
    f[0, 3] = 1j
    f[3, 0] = -1j
    assert not kd_real_condition(f)
    f_ok = np.zeros((6, 6), dtype=complex)
    f_ok[0, 3] = f_ok[3, 0] = 1.0
    assert kd_real_condition(f_ok)


def loop_condition_deviation(f: np.ndarray) -> float:
    """Worst |F_{i(i+k)} - F_{(i-k)i}|, one shift k at a time."""
    d = f.shape[0]
    idx = np.arange(d)
    worst = 0.0
    for k in range(d):
        worst = max(worst, float(np.abs(f[idx, (idx + k) % d] - f[(idx - k) % d, idx]).max()))
    return worst


@pytest.mark.parametrize("d", [2, 5, 6, 9, 12])
def test_condition_gather_matches_the_loop_over_shifts(d):
    rng = np.random.default_rng(d)
    for f in [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(5)]:
        f = f + f.conj().T
        worst = loop_condition_deviation(f)
        assert worst > 0.0
        assert kd_real_condition(f, worst)
        assert not kd_real_condition(f, np.nextafter(worst, 0.0))
    for f in kd_real_basis(d):
        assert loop_condition_deviation(f) == 0.0 and kd_real_condition(f, 1e-300)


def test_condition_requires_hermitian():
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(NotHermitian):
        kd_real_condition(bad)


def test_b_side_condition_cases():
    pair = dft_pair(6)
    assert b_side_condition(np.eye(6), pair)
    u = pair.transition
    # exact b-side construction transforms to a valid operator
    gb = kd_real_basis(6)[7]
    assert b_side_condition(u @ gb @ u.conj().T, pair)
    # single defective b-basis cell
    gb_bad = np.zeros((6, 6), dtype=complex)
    gb_bad[0, 1] = 1.0
    gb_bad[1, 0] = 1.0
    assert not b_side_condition(u @ gb_bad @ u.conj().T, pair)


@pytest.mark.parametrize("d", [4, 6, 9])
def test_three_way_equivalence(d):
    pair = dft_pair(d)
    for index, f in enumerate(hermitian_sample_battery(d, 40)):
        expected = index % 4 in (1, 3)
        assert is_kd_real(f, pair) == expected
        assert kd_real_condition(f, 1e-9) == expected
        assert b_side_condition(f, pair, 1e-9) == expected


def listed_battery(d, n, seed=EQUIVALENCE_SEED):
    """The battery as a list, drawn in the order the battery draws (kinds 0-3: generic, real-table, bumped, b-built)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(d,)))
    basis = np.array(kd_real_basis(d))
    u = dft_pair(d).transition
    samples = []
    for index in range(n):
        if index % 4 == 0:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            samples.append((g + g.conj().T) / 2)
            continue
        f = np.tensordot(rng.standard_normal(len(basis)), basis, 1)
        if index % 4 == 2:
            k, i = int(rng.integers(1, (d - 1) // 2 + 1)), int(rng.integers(0, d))
            f[i, (i + k) % d] += 1e-3
            f[(i + k) % d, i] += 1e-3
        elif index % 4 == 3:
            f = u @ f @ u.conj().T
        samples.append(f)
    return samples


def test_battery_yields_the_listed_operators_one_at_a_time():
    battery = hermitian_sample_battery(6, 200)
    assert inspect.isgenerator(battery)
    assert next(hermitian_sample_battery(6, 10**12)).shape == (6, 6)  # nothing is drawn ahead
    listed = listed_battery(6, 200)
    for f, g in zip(battery, listed, strict=True):
        assert np.array_equal(f, g)


def test_dimension_closed_forms():
    for d in (2, 3, 5, 7, 11, 13):
        assert kd_real_dimension(d) == 2 * d - 1
    for p in (2, 3, 5):
        assert kd_real_dimension(p * p) == 3 * p * p - 2 * p
    for p, q in ((2, 3), (2, 5), (3, 5), (3, 7)):
        assert kd_real_dimension(p * q) == (2 * p - 1) * (2 * q - 1)
    assert kd_real_dimension(1) == 1


@pytest.mark.parametrize("d", list(range(2, 33)))
def test_dimension_equals_gcd_sum(d):
    # d + sum_{k<d} gcd(k, d) is sum_{k<=d} gcd(k, d), which Pillai's identity writes as sum_{e | d} e phi(d/e).
    assert kd_real_dimension(d) == sum(e * totient(d // e) for e in range(1, d + 1) if d % e == 0)


def test_partition_and_dimension_refuse_degenerate_dimensions():
    with pytest.raises(ValueError, match="d >= 2"):
        entry_partition(1)
    with pytest.raises(ValueError, match="positive integer"):
        kd_real_dimension(0)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_hermitian_parameter_basis_keeps_the_member_order(d):
    want = []
    for i in range(d):
        unit = np.zeros((d, d), dtype=complex)
        unit[i, i] = 1.0
        want.append(unit)
    for i in range(d):
        for j in range(i + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[i, j] = sym[j, i] = 1.0
            anti = np.zeros((d, d), dtype=complex)
            anti[i, j], anti[j, i] = 1j, -1j
            want += [sym, anti]
    basis = hermitian_parameter_basis(d)
    assert basis.shape == (d * d, d, d) and np.array_equal(basis, np.array(want))


@pytest.mark.parametrize("d", list(range(1, 61)))
def test_dimension_equals_entry_partition_count(d):
    # One parameter per real category, two per complex one, d for the diagonal.
    categories = entry_partition(d).categories if d > 1 else ()
    assert kd_real_dimension(d) == d + sum(1 if cat.is_real else 2 for cat in categories)


@pytest.mark.parametrize("d", [4, 5, 6, 9, 10])
def test_categories_carry_one_value_each(d):
    # On an operator with an all-real table, every category holds a single
    # complex value, conjugated on the conjugate cells and real on the
    # half-shift categories.
    rng = np.random.default_rng(60 + d)
    basis = kd_real_basis(d)
    f = sum(rng.standard_normal() * b for b in basis)
    for cat in entry_partition(d).categories:
        value = f[cat.cells[0]]
        assert max(abs(f[c] - value) for c in cat.cells) <= 1e-12
        if cat.is_real:
            assert abs(value.imag) <= 1e-12
        else:
            assert max(abs(f[c] - np.conj(value)) for c in cat.conjugate_cells) <= 1e-12


@pytest.mark.parametrize("d", [4, 5, 6, 7, 9, 10, 15])
def test_dimension_equals_family_span_rank(d):
    from kdclassical import pure_kd_set
    from kdclassical.families import all_projectors

    projs, _ = all_projectors(pure_kd_set(dft_pair(d)))
    assert real_span_rank(projs) == kd_real_dimension(d)


@pytest.mark.parametrize("d", list(range(2, 11)))
def test_dimension_equals_constraint_nullity(d):
    from kdclassical.verify import imag_constraint_nullity

    assert imag_constraint_nullity(d) == kd_real_dimension(d)


@pytest.mark.parametrize("d", [2, 4, 5, 6, 9, 10])
def test_basis_spans_the_space(d):
    basis = kd_real_basis(d)
    assert len(basis) == kd_real_dimension(d)
    pair = dft_pair(d)
    for f in basis:
        assert np.abs(f - f.conj().T).max() <= 1e-15
        assert kd_real_condition(f, 1e-12)
        assert is_kd_real(f, pair)
    assert real_span_rank(basis) == kd_real_dimension(d)


def test_render_d5():
    text = render_partition(entry_partition(5))
    rows = [line.split() for line in text.splitlines()]
    assert len(rows) == 5 and all(len(r) == 5 for r in rows)
    assert all(rows[i][i] == "." for i in range(5))
    symbols = {rows[i][j] for i in range(5) for j in range(5) if i != j}
    assert len(symbols) == 2
    # same category along a shift-1 chain, conjugates share the symbol
    assert rows[0][1] == rows[1][2] == rows[0][4]
    assert rows[0][2] == rows[2][4] == rows[0][3]
