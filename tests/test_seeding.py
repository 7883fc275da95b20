"""The probe's seeding: numpy's SeedSequence hash on arrays, one reused generator, the draws of old."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from kdclassical import SampleConfig, dft_pair, probe_conjecture, pure_kd_set, sample_hull_point, sample_kd_boundary
from kdclassical import harness
from kdclassical.families import all_projectors
from kdclassical.harness import (
    _boundary_draw,
    _generators,
    _ginibre_states,
    perturbation_basis,
    seed_words,
    stack_height,
)

SEEDS = [0, 1, 12721, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 7, 2**200 + 5]
INDICES = [0, 1, 156, 157, 2**32 - 1, 2**32, 2**40 + 3]


def per_index_rng(seed: int, index: int) -> np.random.Generator:
    """The generator each sample used to build for itself."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def simplex_mixture(rng: np.random.Generator, projectors) -> np.ndarray:
    """The mixture each hull sample used to sum for itself, one projector at a time."""
    weights = rng.dirichlet(np.ones(len(projectors)))
    out = np.zeros_like(np.asarray(projectors[0], dtype=np.complex128))
    for w, proj in zip(weights, projectors):
        out += w * proj
    return out


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_words_and_states_are_numpys(seed):
    # Seeds past the four-word pool and indices of two words take the longer paths through the hash.
    for index in INDICES:
        reference = np.random.SeedSequence(seed, spawn_key=(index,))
        words = seed_words(seed, index, index + 1)
        assert words.dtype == np.uint64 and words.shape == (1, 4)
        assert np.array_equal(words[0], reference.generate_state(4, np.uint64))
        for i, rng in zip((index, index + 1), _generators(seed, index, index + 2)):  # hashed: two indices
            assert rng.bit_generator.state == np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,))).state


@pytest.mark.parametrize("start", [2**32 - 3, 2**33 - 3])  # one-word then two-word indices; a carry into the high word
def test_a_range_across_a_word_boundary_hashes_each_index(start):
    words = seed_words(12721, start, start + 6)
    for row, index in zip(words, range(start, start + 6), strict=True):
        assert np.array_equal(row, np.random.SeedSequence(12721, spawn_key=(index,)).generate_state(4, np.uint64))


def test_each_block_of_indices_sets_the_states_of_old(monkeypatch):
    monkeypatch.setattr(harness, "SEED_BLOCK", 3)
    states = [rng.bit_generator.state for rng in _generators(31337, 5, 16)]
    assert states == [per_index_rng(31337, i).bit_generator.state for i in range(5, 16)]


def drawn_stacks(monkeypatch, config):
    """The probe's states, one array per stack, as handed to the hull solver."""
    stacks = []
    solve = harness.hull_membership

    def record(states, system, tol):
        stacks.append(np.array(states))
        return solve(states, system, tol)

    monkeypatch.setattr(harness, "hull_membership", record)
    probe_conjecture(config)
    return stacks


@pytest.mark.parametrize("mode, d", [("hull", 2), ("hull", 6), ("perturb", 6), ("ginibre", 6), ("ginibre", 12)])
def test_probe_draws_are_those_of_the_per_index_generators(monkeypatch, mode, d):
    n = stack_height(d) + 13  # across a stack boundary
    stacks = drawn_stacks(monkeypatch, SampleConfig(d=d, seed=12721, n_samples=n, mode=mode))
    assert [len(s) for s in stacks] == [stack_height(d), 13]
    pair = dft_pair(d)
    if mode == "hull":
        projectors = all_projectors(pure_kd_set(pair))[0]
        expected = [simplex_mixture(per_index_rng(12721, i), projectors) for i in range(n)]
    elif mode == "perturb":
        basis = perturbation_basis(None, pair)
        expected = [_boundary_draw(per_index_rng(12721, i), basis) for i in range(n)]
    else:
        expected = _ginibre_states([per_index_rng(12721, i) for i in range(n)], d)
    assert same_bits(np.concatenate(stacks), np.array(expected))


def test_single_draws_are_those_of_the_per_index_generators():
    pair = dft_pair(6)
    projectors = all_projectors(pure_kd_set(pair))[0]
    basis = perturbation_basis(None, pair)
    for index in (0, 157, 2**40 + 3):
        config = SampleConfig(d=6, seed=2**64 + 3, n_samples=1, mode="perturb")
        rng = per_index_rng(2**64 + 3, index)
        assert same_bits(sample_hull_point(config, projectors, index), simplex_mixture(rng, projectors))
        rng = per_index_rng(2**64 + 3, index)
        assert np.array_equal(sample_kd_boundary(config, basis, index), _boundary_draw(rng, basis))


def test_a_call_builds_one_seed_sequence(monkeypatch):
    built = []
    original = np.random.SeedSequence

    def counted(*args, **kwargs):
        built.append(kwargs.get("spawn_key"))
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counted)
    probe_conjecture(SampleConfig(d=6, seed=12721, n_samples=300, mode="ginibre"))
    assert built == [(0,)]  # the cross-check of the first index


def test_a_hash_that_differs_from_numpys_raises(monkeypatch):
    words = seed_words

    def wrong(seed, start, stop):
        out = words(seed, start, stop)
        out[0, 2] ^= np.uint64(1)
        return out

    monkeypatch.setattr(harness, "seed_words", wrong)
    with pytest.raises(RuntimeError, match="SeedSequence"):
        probe_conjecture(SampleConfig(d=6, seed=12721, n_samples=4, mode="ginibre"))
    with pytest.raises(RuntimeError, match="SeedSequence"):
        next(_generators(12721, 7, 9))
    # A single draw takes numpy's words and hashes nothing.
    config = SampleConfig(d=6, seed=12721, n_samples=1, mode="perturb")
    basis = perturbation_basis(None, dft_pair(6))
    assert np.array_equal(sample_kd_boundary(config, basis, 7), _boundary_draw(per_index_rng(12721, 7), basis))


def test_generators_are_one_reused_generator():
    rngs = list(_generators(12721, 0, 5))
    assert all(rng is rngs[0] for rng in rngs)
    assert list(_generators(12721, 5, 5)) == []


def traced_probe_peak(n: int) -> int:
    config = SampleConfig(d=2, seed=12721, n_samples=n, mode="ginibre")
    probe_conjecture(config)  # first-call caches
    tracemalloc.start()
    try:
        probe_conjecture(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_stack_is_released_before_the_next_is_drawn():
    height = stack_height(2)
    one, two = traced_probe_peak(height), traced_probe_peak(2 * height)
    assert two <= 1.1 * one, (one, two)
