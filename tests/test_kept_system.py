"""The list ``all_projectors`` returns keeps its hull system between ``hull_membership`` calls.

Every call checks the list and extracts its states again; when they equal
the kept system's bit for bit the query is decided on that system, with the
Gram, pseudo-inverse and kernel it has computed. The system lives on the
list, so any other list, and a plain list always, gets a system of its own.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from kdclassical import SampleConfig, dft_pair, hull_membership, kd_real_basis, pure_kd_set, sample_kd_boundary
from kdclassical.families import ProjectorList, all_projectors
from kdclassical.geometry import hull_system


def projector_list(d):
    return all_projectors(pure_kd_set(dft_pair(d)))


def certify_states(d, seed, n):
    config = SampleConfig(d=d, seed=seed, n_samples=n, mode="perturb")
    basis = kd_real_basis(d)
    return [sample_kd_boundary(config, basis, index=i) for i in range(n)]


def pure_projector(d, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def bits(a):
    """The float64 or complex128 entries of ``a`` as integers, so that -0.0 and 0.0 differ."""
    return np.asarray(a).view(np.int64)


def same_verdict(kept, fresh):
    assert kept.member == fresh.member
    assert bits(kept.distance).tolist() == bits(fresh.distance).tolist()
    assert np.array_equal(bits(kept.certificate.coefficients), bits(fresh.certificate.coefficients))


class EighCounter:
    """Counts the calls of np.linalg.eigh."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = np.linalg.eigh

        def counted(a):
            self.calls += 1
            return original(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)


def test_certify_d9_queries_against_one_list_make_one_eigh(monkeypatch):
    projs, _ = projector_list(9)
    states = certify_states(9, 12721, 200)
    counter = EighCounter(monkeypatch)
    for rho in states:
        assert hull_membership(rho, projs).member
    assert counter.calls == 1


@pytest.mark.parametrize("d", [4, 6, 9])
def test_kept_verdicts_are_those_of_a_fresh_system(d):
    projs, _ = projector_list(d)
    for rho in certify_states(d, 12721, 40):
        same_verdict(hull_membership(rho, projs), hull_membership(rho, hull_system(projs)))


@pytest.mark.parametrize("how", ["list item", "array entries"])
def test_a_projector_replaced_in_place_gives_a_new_system(monkeypatch, how):
    projs, _ = projector_list(4)
    projs = ProjectorList(p.copy() for p in projs)
    rho = certify_states(4, 12721, 1)[0]
    counter = EighCounter(monkeypatch)
    before = hull_membership(rho, projs)
    k = int(before.certificate.coefficients.argmax())
    if how == "list item":
        projs[k] = pure_projector(4, 5)
    else:
        projs[k][...] = pure_projector(4, 5)
    after = hull_membership(rho, projs)
    assert counter.calls == 2
    assert not np.array_equal(after.certificate.coefficients, before.certificate.coefficients)
    same_verdict(after, hull_membership(rho, hull_system(projs)))


def test_a_list_that_differs_only_in_the_sign_of_a_zero_is_rebuilt(monkeypatch):
    projs, labels = projector_list(4)
    k = labels.index("A[0]")  # |0><0|, whose state is read from column 0
    projs[k] = projs[k].copy()
    plain = hull_system(projs).states
    rho = certify_states(4, 12721, 1)[0]
    counter = EighCounter(monkeypatch)
    hull_membership(rho, projs)
    projs[k][1, 0] = complex(0.0, -0.0)  # division by the pivot keeps the sign of an imaginary zero
    negative = hull_system(projs).states
    assert np.array_equal(plain, negative) and not np.array_equal(bits(plain), bits(negative))
    hull_membership(rho, projs)
    hull_membership(rho, projs)
    assert counter.calls == 2


@pytest.mark.parametrize("bad", ["rank two", "nan"])
def test_a_bad_list_after_a_valid_one_of_its_shape_is_refused(bad):
    projs, labels = projector_list(4)
    projs = ProjectorList(p.copy() for p in projs)
    rho = certify_states(4, 12721, 1)[0]
    assert hull_membership(rho, projs).member
    if bad == "rank two":  # the same list, broken in place
        projs[labels.index("A[0]")] += projs[labels.index("A[1]")]
    else:
        projs[3][2, 1] = np.nan
    for _ in range(2):
        with pytest.raises(ValueError):
            hull_membership(rho, projs)


def test_alternating_two_lists_gives_each_its_own_verdicts(monkeypatch):
    projs, _ = projector_list(9)
    reordered = ProjectorList(projs[::-1])
    fresh = {id(projs): hull_system(projs), id(reordered): hull_system(reordered)}
    counter = EighCounter(monkeypatch)
    for rho in certify_states(9, 12721, 10):
        for source in (projs, reordered, projs):
            same_verdict(hull_membership(rho, source), hull_membership(rho, fresh[id(source)]))
    assert counter.calls == 4  # one per list and one per fresh system


def test_equal_lists_keep_systems_of_their_own():
    first, _ = projector_list(4)
    second, _ = projector_list(4)
    rho = certify_states(4, 12721, 1)[0]
    hull_membership(rho, first)
    hull_membership(rho, second)
    assert first.kept_system is not second.kept_system


def test_a_plain_list_is_not_kept(monkeypatch):
    projs, _ = projector_list(4)
    plain = list(projs)
    rho = certify_states(4, 12721, 1)[0]
    counter = EighCounter(monkeypatch)
    for _ in range(3):
        hull_membership(rho, plain)
    assert counter.calls == 3


def test_the_kept_system_lives_as_long_as_its_list():
    projs, _ = projector_list(9)
    hull_membership(certify_states(9, 12721, 1)[0], projs)
    kept = weakref.ref(projs.kept_system)
    del projs
    gc.collect()
    assert kept() is None


def test_hull_system_returns_a_fresh_system():
    projs, _ = projector_list(4)
    assert hull_system(projs) is not hull_system(projs)
    families = list(pure_kd_set(dft_pair(4)))
    assert hull_system(families) is not hull_system(families)


@pytest.mark.parametrize("source", ["list", "families"])
def test_shared_arrays_refuse_a_write(source):
    families = list(pure_kd_set(dft_pair(4)))
    system = hull_system(projector_list(4)[0] if source == "list" else families)
    hull_membership(certify_states(4, 12721, 1)[0], system)
    for name in ("states", "gram", "pinv_gram", "kernel"):
        array = getattr(system, name)
        assert array.size
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
