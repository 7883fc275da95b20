from __future__ import annotations

import json

import numpy as np
import pytest

from kdclassical import (
    MixedDimensions,
    NotHermitian,
    Tolerances,
    basis_projector,
    dft_pair,
    flatten_hermitian,
    is_density_matrix,
    is_hermitian,
    matrix_from_json,
    matrix_to_json,
    pure_kd_set,
    real_span_rank,
)
from kdclassical.families import all_projectors
from kdclassical.linalg import require_hermitian


def test_is_hermitian_identity():
    assert is_hermitian(np.eye(3), 1e-12)


def test_is_hermitian_antihermitian_offdiagonal():
    m = np.zeros((2, 2), dtype=complex)
    m[0, 1] = 1j
    m[1, 0] = 1j
    assert not is_hermitian(m, 1e-12)


def test_is_hermitian_ginibre_false():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert not is_hermitian(g, 1e-12)
    assert is_hermitian((g + g.conj().T) / 2, 1e-12)


def test_is_density_matrix_cases():
    assert is_density_matrix(np.eye(5) / 5)
    assert not is_density_matrix(np.diag([2.0, -1.0]))
    proj = basis_projector(dft_pair(9), "a", 0)
    assert is_density_matrix(proj)


def test_is_density_matrix_trace_and_hermiticity():
    assert not is_density_matrix(np.eye(4) / 3)  # trace 4/3
    m = np.eye(2, dtype=complex)
    m[0, 1] = 1e-3
    assert not is_density_matrix(m)


def test_real_span_rank_identity():
    assert real_span_rank([np.eye(4)]) == 1


def test_real_span_rank_linear_dependence():
    a0 = np.diag([1.0, 0.0]).astype(complex)
    a1 = np.diag([0.0, 1.0]).astype(complex)
    assert real_span_rank([a0, a1, a0 + a1]) == 2


def test_real_span_rank_families_d9():
    projs, _ = all_projectors(pure_kd_set(dft_pair(9)))
    assert real_span_rank(projs) == 21


def test_real_span_rank_permutation_invariant():
    rng = np.random.default_rng(5)
    mats = []
    for _ in range(7):
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        mats.append((g + g.conj().T) / 2)
    mats.append(mats[0] + mats[1])  # force a dependency
    base = real_span_rank(mats)
    for _ in range(20):
        order = rng.permutation(len(mats))
        assert real_span_rank([mats[k] for k in order]) == base


def test_real_span_rank_bounded():
    rng = np.random.default_rng(6)
    for d, k in [(3, 5), (4, 20), (2, 9)]:
        mats = []
        for _ in range(k):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            mats.append((g + g.conj().T) / 2)
        assert real_span_rank(mats) <= min(k, d * d)


def test_real_span_rank_errors():
    with pytest.raises(MixedDimensions):
        real_span_rank([np.eye(2), np.eye(3)])
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(NotHermitian):
        real_span_rank([bad])


def test_eigenvalues_sum_to_trace():
    rng = np.random.default_rng(7)
    for d in (2, 5, 11, 16):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = g @ g.conj().T
        rho /= rho.trace().real
        assert abs(np.linalg.eigvalsh(rho).sum() - 1.0) <= 1e-10


def test_flatten_hermitian_layout():
    m = np.array([[1.0, 2.0 + 3.0j], [2.0 - 3.0j, 4.0]])
    vec = flatten_hermitian(m)
    assert vec.tolist() == [1.0, 4.0, 2.0, 3.0]
    assert vec.size == 4


def test_matrix_json_roundtrip_bit_identical():
    u = dft_pair(5).transition
    doc = matrix_to_json(u)
    text = json.dumps(doc)
    again = matrix_to_json(matrix_from_json(json.loads(text)))
    assert json.dumps(again) == text
    assert np.array_equal(matrix_from_json(doc), u)


def test_matrix_from_json_refuses_dimension_zero():
    with pytest.raises(ValueError, match=">= 1"):
        matrix_from_json({"d": 0, "entries": []})


def test_matrix_from_json_validation():
    with pytest.raises(ValueError):
        matrix_from_json({"d": 2, "entries": [[1, 0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"entries": []})
    with pytest.raises(ValueError):
        matrix_from_json({"d": 1, "entries": [[1, 0, 0]]})
    for entries in (5, [[0.5, 0], 5, [0, 0], [0.5, 0]], [[0.5, 0], [None, 0], [0, 0], [0.5, 0]],
                    [[0.5, 0], [0, [0]], [0, 0], [0.5, 0]], [[0.5, 0], "12", [0, 0], [0.5, 0]]):
        with pytest.raises(ValueError):
            matrix_from_json({"d": 2, "entries": entries})


def test_matrix_from_json_rejects_non_finite_entries():
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match="non-finite"):
            matrix_from_json({"d": 2, "entries": [[0.5, 0], [0, 0], [0, 0], [bad, 0]]})
    with pytest.raises(ValueError, match="non-finite"):
        matrix_from_json({"d": 1, "entries": [[1, "nan"]]})


def test_matrix_from_json_rejects_non_integer_dimension():
    for bad in (2.7, "2", True, None, float("nan")):
        with pytest.raises(ValueError, match="integer"):
            matrix_from_json({"d": bad, "entries": [[1, 0]] * 4})
    assert matrix_from_json({"d": 2.0, "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]}).shape == (2, 2)


def test_non_finite_matrices_are_rejected():
    a = np.eye(3) / 3
    a[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        is_hermitian(a)
    a[1, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        is_density_matrix(a)


def test_tolerances_must_be_positive():
    with pytest.raises(ValueError):
        Tolerances(eig_psd=0.0)
    with pytest.raises(ValueError):
        Tolerances(recon=-1e-9)


@pytest.mark.parametrize("field", ["eig_psd", "classicality", "rank_rel", "recon"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), True, np.True_])
def test_tolerances_must_be_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        Tolerances(**{field: value})


def test_hermitian_check_of_a_stack_names_any_bad_member():
    stack = np.stack([np.eye(3, dtype=complex)] * 4)
    assert require_hermitian(stack, 1e-12).shape == (4, 3, 3)
    stack[2, 0, 1] = 1.0
    with pytest.raises(NotHermitian):
        require_hermitian(stack, 1e-12)
    with pytest.raises(ValueError, match="stack of square matrices"):
        require_hermitian(np.zeros((0, 3, 3)), 1e-12)
    with pytest.raises(ValueError, match="non-finite"):
        require_hermitian(np.full((2, 3, 3), np.nan), 1e-12)


def test_matrix_from_json_refuses_boolean_components():
    for entries in ([[True, 0], [0, 0], [0, 0], [0.5, 0]], [[0.5, 0], [0, False], [0, 0], [0.5, 0]]):
        with pytest.raises(ValueError, match="boolean"):
            matrix_from_json({"d": 2, "entries": entries})
