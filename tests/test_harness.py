from __future__ import annotations

import json

import numpy as np
import pytest

from kdclassical import (
    BadDimension,
    NotHermitian,
    SampleConfig,
    SolverDidNotConverge,
    Tolerances,
    TooLarge,
    ZeroDirection,
    classicality,
    dft_pair,
    is_density_matrix,
    kd_real_basis,
    kd_real_dimension,
    kd_table,
    perturbation_state,
    probe_conjecture,
    pure_kd_set,
    sample_hull_point,
    sample_kd_boundary,
)
from kdclassical.families import PureFamily, all_projectors
from kdclassical.geometry import PINV_CUTOFF, hull_system, stack_real
from kdclassical.harness import STACK_BYTES, perturbation_basis, setup_bytes, stack_height, traceless_real_table_directions
from kdclassical.kdreal import traceless_kd_real_block
from kdclassical.solver import _FreeSetStack


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(d=4, seed=1, n_samples=0, mode="hull")
    with pytest.raises(ValueError):
        SampleConfig(d=4, seed=1, n_samples=5, mode="walk")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("d", 6.5, "d must be an integer"),
        ("d", 6.0, "d must be an integer"),
        ("d", True, "d must be an integer"),
        ("d", "6", "d must be an integer"),
        ("n_samples", 2.0, "n_samples must be an integer"),
        ("n_samples", True, "n_samples must be an integer"),
        ("seed", 1.5, "seed must be an integer"),
        ("seed", False, "seed must be an integer"),
        ("seed", None, "seed must be an integer"),
        ("seed", -1, "seed must be >= 0"),
    ],
)
def test_sample_config_rejects_non_integers_and_negative_seeds(field, value, message):
    # Accepted, a float d would only fail later, inside probe_conjecture, with a TypeError.
    fields = {"d": 6, "seed": 1, "n_samples": 2, "mode": "perturb", field: value}
    with pytest.raises(ValueError, match=message):
        SampleConfig(**fields)


def test_sample_config_takes_numpy_integers():
    config = SampleConfig(d=np.int64(4), seed=np.int64(0), n_samples=np.int32(1), mode="hull")
    assert probe_conjecture(config).counts["classical_and_member"] == 1


def test_hull_point_single_projector():
    pair = dft_pair(3)
    config = SampleConfig(d=3, seed=7, n_samples=1, mode="hull")
    proj = np.diag([1.0, 0, 0]).astype(complex)
    assert np.abs(sample_hull_point(config, [proj]) - proj).max() <= 1e-15


def test_hull_point_deterministic():
    projs, _ = all_projectors(pure_kd_set(dft_pair(6)))
    config = SampleConfig(d=6, seed=99, n_samples=1, mode="hull")
    first = sample_hull_point(config, projs)
    second = sample_hull_point(config, projs)
    assert np.array_equal(first, second)
    different = sample_hull_point(config, projs, index=1)
    assert np.abs(first - different).max() > 1e-3


def test_hull_points_are_classical():
    pair = dft_pair(6)
    projs, _ = all_projectors(pure_kd_set(pair))
    config = SampleConfig(d=6, seed=3, n_samples=1, mode="hull")
    for index in range(20):
        rho = sample_hull_point(config, projs, index=index)
        assert is_density_matrix(rho)
        assert classicality(kd_table(rho, pair)).classical


def test_perturbation_state_at_zero():
    f = np.diag([1.0, -1.0, 0.0]).astype(complex)
    assert np.abs(perturbation_state(f, 0.0, 3) - np.eye(3) / 3).max() == 0.0


def test_boundary_sampler_zero_direction():
    config = SampleConfig(d=4, seed=1, n_samples=1, mode="perturb")
    with pytest.raises(ZeroDirection):
        sample_kd_boundary(config, [np.eye(4)])


def test_boundary_sampler_rejects_bad_basis():
    config = SampleConfig(d=4, seed=1, n_samples=1, mode="perturb")
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = bad[1, 0] = 1.0
    with pytest.raises(ValueError):
        sample_kd_boundary(config, [bad])


@pytest.mark.parametrize("d", [6, 9])
def test_boundary_draws_valid(d):
    pair = dft_pair(d)
    basis = kd_real_basis(d)
    config = SampleConfig(d=d, seed=5, n_samples=1, mode="perturb")
    for index in range(100):
        rho = sample_kd_boundary(config, basis, index=index)
        assert is_density_matrix(rho)
        table = kd_table(rho, pair)
        assert table.values.real.min() >= -1e-12
        assert float(np.linalg.eigvalsh(rho).min()) >= -1e-12
        assert classicality(table).classical


def test_boundary_deterministic():
    basis = kd_real_basis(6)
    config = SampleConfig(d=6, seed=21, n_samples=1, mode="perturb")
    assert np.array_equal(
        sample_kd_boundary(config, basis, index=3), sample_kd_boundary(config, basis, index=3)
    )


@pytest.mark.parametrize("d, indices", [(6, range(12)), (30, range(3))])
def test_prebuilt_perturbation_basis_draws_identical_states(d, indices):
    config = SampleConfig(d=d, seed=12721, n_samples=1, mode="perturb")
    basis = kd_real_basis(d)
    prebuilt = perturbation_basis(basis, dft_pair(d))
    for index in indices:
        assert np.array_equal(
            sample_kd_boundary(config, prebuilt, index=index),
            sample_kd_boundary(config, basis, index=index),
        )


def test_prebuilt_perturbation_basis_must_match_the_dimension():
    config = SampleConfig(d=4, seed=1, n_samples=1, mode="perturb")
    with pytest.raises(BadDimension):
        sample_kd_boundary(config, perturbation_basis(kd_real_basis(6), dft_pair(6)))


def test_readme_finding_at_d6(tmp_path):
    config = SampleConfig(d=6, seed=12721, n_samples=500, mode="perturb")
    report = probe_conjecture(config, out_dir=tmp_path)
    assert report.counts == {"classical_and_member": 499, "classical_not_member": 1, "not_classical": 0}
    assert abs(report.worst_margin - 0.022795728761780557) <= 1e-12
    assert report.solver_failures == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [c["sample_index"] for c in manifest["candidates"]] == [235]
    assert [p.rsplit("/", 1)[-1] for p in report.counterexample_files] == ["counterexample_00235.json"]


def test_probe_deterministic_counts():
    config = SampleConfig(d=6, seed=11, n_samples=40, mode="perturb")
    first = probe_conjecture(config)
    second = probe_conjecture(config)
    assert first.counts == second.counts
    assert first.worst_margin == second.worst_margin
    assert sum(first.counts.values()) == 40
    assert first.solver_failures == 0
    assert first.notes  # perturb mode carries the coverage note


@pytest.mark.parametrize("d", [4, 6, 9, 16])
def test_probe_hull_soundness(d):
    config = SampleConfig(d=d, seed=13, n_samples=25, mode="hull")
    report = probe_conjecture(config)
    assert report.counts["not_classical"] == 0
    assert sum(report.counts.values()) == 25


def test_probe_ginibre_is_nonclassical():
    config = SampleConfig(d=6, seed=17, n_samples=20, mode="ginibre")
    report = probe_conjecture(config)
    assert report.counts["not_classical"] == 20


def test_probe_archives_candidates(tmp_path):
    # An artificially strict reconstruction tolerance turns every classical
    # sample into a margin-bearing candidate, exercising the archive path.
    strict = Tolerances(recon=1e-30)
    config = SampleConfig(d=4, seed=23, n_samples=5, mode="hull", tolerances=strict)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    first = probe_conjecture(config, out_dir=out_a)
    second = probe_conjecture(config, out_dir=out_b)
    assert first.counts["classical_not_member"] == 5
    assert len(first.counterexample_files) == 5
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["seed"] == 23 and manifest["mode"] == "hull"
    assert len(manifest["candidates"]) == 5
    for name in sorted(p.name for p in out_a.iterdir()):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_membership_solver_is_reentrant():
    # Concurrent evaluations must match serial ones exactly.
    from concurrent.futures import ThreadPoolExecutor

    from kdclassical import hull_membership

    pair = dft_pair(6)
    projs, _ = all_projectors(pure_kd_set(pair))
    config = SampleConfig(d=6, seed=31, n_samples=1, mode="hull")
    states = [sample_hull_point(config, projs, index=i) for i in range(12)]
    serial = [hull_membership(rho, projs).distance for rho in states]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda rho: hull_membership(rho, projs).distance, states))
    assert serial == parallel


def test_probe_report_json_shape():
    config = SampleConfig(d=4, seed=29, n_samples=5, mode="hull")
    doc = probe_conjecture(config).to_json()
    assert set(doc) == {
        "counts",
        "worst_margin",
        "counterexample_files",
        "runtime_ms",
        "solver_failures",
        "notes",
    }
    assert sum(doc["counts"].values()) == 5


def test_direction_basis_rejects_one_bad_member():
    basis = kd_real_basis(6)
    off_table = np.zeros((6, 6), dtype=complex)
    off_table[0, 1] = off_table[1, 0] = 1.0  # Hermitian, but breaks the shift condition
    with pytest.raises(ValueError, match="entrywise-real table"):
        perturbation_basis(basis[:7] + [off_table] + basis[7:], dft_pair(6))
    not_hermitian = np.zeros((6, 6), dtype=complex)
    not_hermitian[0, 1] = 1.0
    with pytest.raises(NotHermitian):
        perturbation_basis(basis[:3] + [not_hermitian] + basis[3:], dft_pair(6))


def test_direction_basis_checks_each_member_as_given():
    # An imaginary multiple of the identity leaves the traceless part Hermitian, yet the member is not.
    basis = kd_real_basis(6)
    with pytest.raises(NotHermitian):
        perturbation_basis(basis[:3] + [basis[3] + 1e-6j * np.eye(6)] + basis[4:], dft_pair(6))
    with pytest.raises(ValueError, match="shape"):
        perturbation_basis(basis[:3] + [np.eye(5)] + basis[4:], dft_pair(6))
    with pytest.raises(ValueError, match="non-finite"):
        perturbation_basis(basis[:3] + [np.full((6, 6), np.nan)] + basis[4:], dft_pair(6))


def test_closed_form_block_is_checked_like_a_stacked_list(monkeypatch):
    import kdclassical.harness as harness_module

    def corrupted(d):
        block = traceless_kd_real_block(d)
        block[1, 7] += 1e-6  # the real part of cell (0, 1), alone: no longer Hermitian
        return block

    monkeypatch.setattr(harness_module, "traceless_kd_real_block", corrupted)
    with pytest.raises(NotHermitian):
        perturbation_basis(None, dft_pair(6))


@pytest.mark.parametrize("d", range(2, 31))
def test_closed_form_block_matches_the_stacked_basis_bit_for_bit(d):
    eye = np.eye(d, dtype=complex)
    listed = stack_real([f - (np.trace(f) / d) * eye for f in kd_real_basis(d)])
    closed = traceless_kd_real_block(d)
    assert closed.shape == listed.shape == (2 * d * d, kd_real_dimension(d))
    # Bit patterns, so that a +0.0 in place of a -0.0 fails too.
    assert np.array_equal(closed.view(np.uint64), listed.view(np.uint64))
    assert (np.signbit(closed) & (closed == 0.0)).any() == (d > 2)
    by_list = traceless_real_table_directions(kd_real_basis(d), d)
    by_closed_form = traceless_real_table_directions(None, d)
    assert np.array_equal(by_list.view(np.uint64), by_closed_form.view(np.uint64))
    assert by_list.flags.f_contiguous and by_closed_form.flags.f_contiguous


@pytest.mark.parametrize("mode", ["perturb", "ginibre"])
def test_probe_builds_no_dense_projector_or_basis_matrix(monkeypatch, mode):
    import kdclassical.harness as harness_module

    def forbidden(*args, **kwargs):
        raise AssertionError("dense projector or basis matrix built")

    monkeypatch.setattr(PureFamily, "projector", forbidden)
    monkeypatch.setattr(harness_module, "kd_real_basis", forbidden)
    monkeypatch.setattr(harness_module, "all_projectors", forbidden)
    report = probe_conjecture(SampleConfig(d=30, seed=12721, n_samples=1, mode=mode))
    assert sum(report.counts.values()) == 1 and report.solver_failures == 0


def test_failed_solves_stay_out_of_worst_margin(tmp_path, monkeypatch):
    import kdclassical.harness as harness_module

    def explode(states, *args, **kwargs):
        return [None] * len(states)  # a stacked call reports each failed solve as None

    monkeypatch.setattr(harness_module, "hull_membership", explode)
    config = SampleConfig(d=6, seed=12721, n_samples=6, mode="perturb")
    report = probe_conjecture(config, out_dir=tmp_path)
    assert report.counts == {"classical_and_member": 0, "classical_not_member": 6, "not_classical": 0}
    assert report.solver_failures == 6 and report.worst_margin == 0.0
    assert report.counterexample_files == () and not list(tmp_path.iterdir())
    json.dumps(report.to_json(), allow_nan=False)


def test_empty_bases_are_refused():
    with pytest.raises(ValueError, match="nonempty"):
        sample_hull_point(SampleConfig(d=4, seed=1, n_samples=1, mode="hull"), [])
    with pytest.raises(ValueError, match="no members"):
        traceless_real_table_directions([], 4)


@pytest.mark.parametrize("d", [2, 6, 9, 12, 30])
def test_setup_estimate_covers_the_built_arrays(d):
    pair = dft_pair(d)
    directions = perturbation_basis(None, pair).directions
    families = pure_kd_set(pair)
    projectors, _ = all_projectors(families)
    system = hull_system(families)
    m = kd_real_dimension(d)
    assert directions.shape == (2 * d * d, m - 1)
    # The traceless block and the SVD's left factor, both 2d^2 x m, are alive when the directions are copied out.
    block_bytes = 2 * d * d * m * 8
    # The Gram counts three times: it is computed from the complex overlaps V^dag V, n x n as well.
    # One stack's factor buffers, as the solver's stacked loop builds them (the single loop builds one state's),
    # grown until every row's free set holds all n columns: at full width, beside the copy they last grew from.
    height, n = stack_height(d), len(system.gram)
    stack = _FreeSetStack(np.eye(n), np.zeros((height, n)), np.arange(height))
    sizes = [stack.b.nbytes]
    for j in range(n):
        stack.append(np.full(height, j))
        if stack.b.nbytes != sizes[-1]:
            sizes.append(stack.b.nbytes)
    assert stack.k.tolist() == [n] * height and stack.b.shape == (height, n, n + 2)
    assert sizes[-1] <= STACK_BYTES or height == 1
    full_and_copy = sum(sizes[-2:])
    # Per state of the stack: four d x d complex arrays, one d x n complex product, twelve n-vectors of reals and
    # 768 bytes of Python objects, this stack's verdicts only (tracemalloc sees 115-575 bytes per state alive after
    # hull_membership returns at d = 2, 6 and 9); tests/test_cli.py checks that the estimate covers the traced peak.
    samples = height * (4 * np.zeros((d, d), dtype=complex).nbytes + system.states.nbytes + 12 * system.gram[0].nbytes + 768)
    # The Gram's eigh, for the kernel of a perturbation or hull state's failed Weyl candidate (a Ginibre state has
    # none): its eigenvectors and eigenvalues, and LAPACK's copy of the Gram with its eigenvalues and syevd's
    # workspace, 2 n^2 + 6 n + 1 reals and 5 n + 3 integers, rounded up to 16 n-vectors. The kept eigenvectors and
    # the kernel copied out afterwards, n columns between them, fit in what the eigh has freed.
    eig, vecs = np.linalg.eigh(system.gram)
    assert system.kernel.shape[1] + int(np.count_nonzero(eig > PINV_CUTOFF * eig[-1])) == n
    spectrum = 4 * vecs.nbytes + 16 * eig.nbytes
    assert spectrum >= 2 * vecs.nbytes + 2 * eig.nbytes + 8 * (2 * n * n + 6 * n + 1) + 8 * (5 * n + 3)
    built = system.states.nbytes + system.weights.nbytes + 3 * system.gram.nbytes + full_and_copy + samples
    assert setup_bytes(d, "ginibre") == built
    assert setup_bytes(d, "perturb") == built + spectrum + 2 * block_bytes + directions.nbytes
    assert setup_bytes(d, "hull") == built + spectrum + sum(p.nbytes for p in projectors)


def test_probe_refuses_a_dimension_beyond_physical_memory(monkeypatch):
    import kdclassical.harness as harness_module

    monkeypatch.setattr(harness_module, "_physical_memory", lambda: setup_bytes(6, "hull") - 1)
    with pytest.raises(TooLarge):
        probe_conjecture(SampleConfig(d=6, seed=1, n_samples=1, mode="hull"))
    monkeypatch.setattr(harness_module, "_physical_memory", lambda: setup_bytes(6, "hull"))
    assert sum(probe_conjecture(SampleConfig(d=6, seed=1, n_samples=2, mode="hull")).counts.values()) == 2
    monkeypatch.undo()
    assert setup_bytes(30, "perturb") < harness_module._physical_memory()
