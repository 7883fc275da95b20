"""Seeded randomized exploration of the classical-state set.

Three samplers: flat-simplex mixtures of a projector list (sound by
construction), line perturbations rho(x) = I/d + x F along random traceless
directions F with an all-real table (the step bound
x+ = min(1/(d f_max), 1/(d^2 max|Q(F)|)) keeps the result both positive
semidefinite and entrywise nonnegative), and Ginibre density matrices.
The probe classifies samples by classicality and hull membership and
archives candidate counterexamples with full seed provenance.

Everything a probe call shares across its samples is built once per call:
the basis pair, the family-built hull system
(:class:`~kdclassical.geometry.HullSystem`, from the families' state
vectors), the dense projectors in hull mode only and, in perturb mode, the
traceless direction basis (:class:`PerturbationBasis`) from the closed-form
block of the all-real-table space. Per sample only the draw and its verdict
remain; the tables, the Ginibre products g g^H and the hull solves are made
per stack of samples (:data:`STACK_BYTES`), each state getting what it gets alone.
"""

from __future__ import annotations

import json
import numbers
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dft import BasisPair, dft_pair
from .engine import classicality, kd_table
from .exceptions import BadDimension, TooLarge, ZeroDirection
from .families import all_projectors, factorizations, pure_kd_set
from .geometry import hull_membership, hull_system, stack_real
# kd_real_basis and kd_real_condition are not called here, but benchmarks/tracing.py wraps them under this module.
from .kdreal import CONDITION_TOL, kd_real_basis, kd_real_condition, kd_real_dimension, kd_real_parts_condition, traceless_kd_real_block  # noqa: F401
from .linalg import Tolerances, matrix_to_json
from .solver import stack_buffer_bytes

MODES = ("hull", "perturb", "ginibre")

PERTURB_COVERAGE_NOTE = (
    "perturb mode draws line segments from the maximally mixed state; "
    "such segments need not cover the whole classical set, so coverage is best-effort"
)


@dataclass(frozen=True)
class SampleConfig:
    d: int
    seed: int
    n_samples: int
    mode: str
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self) -> None:
        for name in ("d", "seed", "n_samples"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.d < 1:
            raise ValueError("dimension must be a positive integer")


@dataclass(frozen=True)
class ProbeReport:
    counts: dict[str, int]
    worst_margin: float
    counterexample_files: tuple[str, ...]
    runtime_ms: int
    solver_failures: int
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "counts": dict(self.counts),
            "worst_margin": self.worst_margin,
            "counterexample_files": list(self.counterexample_files),
            "runtime_ms": self.runtime_ms,
            "solver_failures": self.solver_failures,
            "notes": list(self.notes),
        }


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _simplex_mixture(rng: np.random.Generator, projectors) -> np.ndarray:
    weights = rng.dirichlet(np.ones(len(projectors)))
    out = np.zeros_like(np.asarray(projectors[0], dtype=np.complex128))
    for w, proj in zip(weights, projectors):
        out += w * proj
    return out


def sample_hull_point(config: SampleConfig, projectors, index: int = 0) -> np.ndarray:
    """One flat-simplex mixture of the projector list; always a density matrix."""
    if not projectors:
        raise ValueError("projector list must be nonempty")
    return _simplex_mixture(_rng(config.seed, index), projectors)


# Singular values of a traceless block at or below this fraction of the
# largest count as zero. For the whole all-real-table space the traceless
# step removes one dimension, whose singular value comes out below 1e-16 of
# the largest, while every kept one is above 0.09 of it (d <= 60).
DIRECTION_RANK_CUT = 1e-12

# A drawn direction below this Frobenius norm is zero up to roundoff: the
# directions are orthonormal, so its norm is that of the standard normal
# draw, and the step bound would divide by roundoff.
ZERO_DIRECTION_NORM = 1e-14


def traceless_real_table_directions(f_basis, d: int) -> np.ndarray:
    """Orthonormal stacked-real basis of the traceless part of span(f_basis).

    ``f_basis`` is None for the whole all-real-table space, whose traceless
    block comes in closed form
    (:func:`~kdclassical.kdreal.traceless_kd_real_block`), or a list of
    operators with all-real tables spanning a subspace of it, stacked here.
    Either block is checked, Hermiticity and the entry condition per column,
    before its SVD.
    """
    if f_basis is None:
        block = traceless_kd_real_block(d)
    elif not len(f_basis):
        raise ValueError("basis has no members")
    else:
        block = stack_real([_traceless(f, d) for f in f_basis])
    cells = d * d
    re, im = block[:cells].T.reshape(-1, d, d), block[cells:].T.reshape(-1, d, d)  # views, one (d, d) per column
    if not kd_real_parts_condition(re, im, CONDITION_TOL):
        raise ValueError("basis member does not have an entrywise-real table")
    u, sigma, _ = np.linalg.svd(block, full_matrices=False)
    # The singular values are sorted, so the kept ones are a prefix. It is
    # copied column-major: a row-strided view of ``u`` sends each draw's
    # product through another BLAS kernel and changes the draws' last bits.
    return np.asfortranarray(u[:, : int(np.count_nonzero(sigma > DIRECTION_RANK_CUT * sigma[0]))])


def _traceless(f, d: int) -> np.ndarray:
    """f - Re(tr(f)/d) I; only the real part is removed, so the block check still sees f's imaginary diagonal."""
    f = np.asarray(f, dtype=np.complex128)
    if f.shape != (d, d):
        raise ValueError(f"basis member has shape {f.shape}, expected {(d, d)}")
    return f - (np.trace(f) / d).real * np.eye(d, dtype=np.complex128)


@dataclass(frozen=True)
class PerturbationBasis:
    """Traceless real-table directions and the basis pair, built once for many draws.

    ``sample_kd_boundary`` accepts one in place of an operator basis and then
    skips rebuilding the directions; the draws are identical either way. The
    whole space is asked for with None: the list ``kd_real_basis(d)`` gives
    the same directions bit for bit, after building every member densely.
    """

    pair: BasisPair
    directions: np.ndarray


def perturbation_basis(f_basis, pair: BasisPair) -> PerturbationBasis:
    """Directions of the whole all-real-table space for None, or of a list of operators spanning a subspace of it."""
    return PerturbationBasis(pair=pair, directions=traceless_real_table_directions(f_basis, pair.dim))


def _matrix_from_stacked(vec: np.ndarray, d: int) -> np.ndarray:
    re = vec[: d * d].reshape(d, d)
    im = vec[d * d :].reshape(d, d)
    return re + 1j * im


def perturbation_state(f: np.ndarray, x: float, d: int) -> np.ndarray:
    """rho(x) = I/d + x f."""
    return np.eye(d, dtype=np.complex128) / d + x * f


def sample_kd_boundary(config: SampleConfig, f_basis, index: int = 0) -> np.ndarray:
    """One line-perturbation sample rho(x) with x drawn uniformly on [0, x+].

    ``f_basis`` is None for the whole all-real-table space, a list of
    operators with all-real tables for a subspace of it, or a
    :class:`PerturbationBasis` built from either with :func:`perturbation_basis`.
    """
    d = config.d
    basis = f_basis if isinstance(f_basis, PerturbationBasis) else perturbation_basis(f_basis, dft_pair(d))
    if basis.pair.dim != d:
        raise BadDimension(f"perturbation basis has dimension {basis.pair.dim}, config says {d}")
    directions = basis.directions
    if directions.shape[1] == 0:
        raise ZeroDirection("basis has no traceless component")
    rng = _rng(config.seed, index)
    coeffs = rng.standard_normal(directions.shape[1])
    f = _matrix_from_stacked(directions @ coeffs, d)
    f = (f + f.conj().T) / 2  # scrub roundoff from the stacked round trip
    if float(np.linalg.norm(f)) < ZERO_DIRECTION_NORM:
        raise ZeroDirection("drawn direction is numerically zero")
    f_max = float(np.abs(np.linalg.eigvalsh(f)).max())
    q_max = float(np.abs(kd_table(f, basis.pair).values).max())
    # Table entries of I/d are 1/d^2, so nonnegativity of the table needs the
    # d^2 denominator; eigenvalues of I/d are 1/d, hence the d denominator.
    x_plus = min(1.0 / (d * f_max), 1.0 / (d * d * q_max))
    x = float(rng.uniform(0.0, x_plus))
    return perturbation_state(f, x, d)


# The probe hands its samples to the hull solver in stacks. The solver
# checks the Weyl step of a whole stack at once and, when enough states
# are left undecided, runs one active-set loop for them all, each
# iteration costing a fixed number of numpy calls whatever the stack's
# height. The stack's factor buffers at full width, n x (n + 2) floats per
# state, are held to this many bytes: 157 states at d = 6 (n = 24), 125 at
# d = 9, 18 at d = 12, 14 at d = 16, and from n = 221 on one, a stack of
# one like any single query (d = 30 has n = 240): there a solve takes
# about 140 steps on products that are no longer small, and the per-call
# cost that a stack shares is a small part of it. The buffers start narrow
# and widen with the widest free set. A stack that leaves the solver too few
# undecided states for its stacked loop solves them one by one and shares
# only the input checks, h, the Weyl step and the residual.
STACK_BYTES = 768 * 1024


def stack_height(d: int, families: int | None = None) -> int:
    """States per stack of a probe at dimension d, from :data:`STACK_BYTES` (n as in :func:`setup_bytes`)."""
    if families is not None and families < 1:  # setup_bytes sizes its stack here, so it raises too
        raise ValueError(f"need at least one family, got {families}")
    n = d * (len(factorizations(d)) if families is None else families)
    return max(1, STACK_BYTES // (n * (n + 2) * 8))


# The arrays each probe mode and command builds, as named in :func:`setup_bytes`.
_SETUP_ARRAYS = {
    "hull": ("states", "overlaps", "gram", "stack", "samples", "projectors"),
    "perturb": ("states", "overlaps", "gram", "stack", "samples", "directions"),
    "ginibre": ("states", "overlaps", "gram", "stack", "samples"),
    "member": ("states", "overlaps", "gram", "copies", "factor"),
    "span-rank": ("projectors", "flat"),
    "pure": ("json",),
}


def setup_bytes(d: int, command: str, families: int | None = None) -> int:
    """Bytes of the arrays ``command`` builds at dimension d, computed without building them.

    ``command`` is a probe mode ("hull", "perturb", "ginibre"), "member",
    "span-rank", "pure" or "verify". With n = d x ``families`` projectors
    (all d tau(d) by default):

    - states: the d x n state vectors (complex) and the d x d Weyl weights
      of a family-built hull system;
    - overlaps: the n x n complex V^dag V its Gram is computed from;
    - gram: n x n reals;
    - stack: the solver's factor buffers for one stack of
      :func:`stack_height` states at full width, n x (n + 2) reals each,
      and the narrower copy they last grew from;
    - samples: per state of that stack, four d x d complex arrays (the
      most alive at once among the state, its draw, its table's product
      and values, its Weyl coefficients and its residual), one d x n
      complex product (h's or the residual's), twelve n-vectors of reals
      (h, the candidates, the coefficients, the solver's per-row arrays)
      and 1.5 KB of Python objects (this stack's verdicts and the last's);
    - projectors: n d^2 complex, built as dense matrices;
    - directions: the 2d^2 x m traceless block, m being the real-table
      dimension, the SVD's left factor of the same shape, and the
      2d^2 x (m - 1) directions copied out of it;
    - copies: eight more d x n complex arrays of state vectors: the
      families' own, V^dag for the overlaps, then two per pass over the
      states in a query (h, the min-norm step, the residual);
    - factor: the solver's n x n inverse Cholesky factor, built when the
      min-norm step does not decide the query;
    - flat: the n x d^2 real rows of ``real_span_rank``, the list they are
      built from and the SVD's copy (3 n d^2 reals);
    - json: one family of d members written by ``kd pure``, 512 bytes per
      matrix entry (its Python floats and lists, then its text as str and
      as bytes: about 380 bytes as tracemalloc counts them).

    "verify" runs its checks one after another, so its estimate is the
    largest of them: the real-table battery (the dense basis of m members,
    held twice while it is stacked, and 200 drawn operators of 16 d^2 + 256
    bytes each), the dimension triple, which runs at d <= 16 (the d^2 dense
    parameter matrices, their table product and values, and as much again
    for the temporaries and table objects beside them: 64 d^4 bytes), and
    the perturb and hull probe set-ups, which the round-trip and probe
    checks build.
    """
    n = d * (len(factorizations(d)) if families is None else families)
    m = kd_real_dimension(d)
    if command == "verify":
        battery = 32 * m * d * d + 200 * (16 * d * d + 256)
        return max(battery, 64 * d**4 if d <= 16 else 0, setup_bytes(d, "perturb"), setup_bytes(d, "hull"))
    height = stack_height(d, families)
    sizes = {
        "states": n * d * 16 + d * d * 8,
        "overlaps": n * n * 16,
        "gram": n * n * 8,
        "stack": stack_buffer_bytes(height, n),
        "samples": height * (64 * d * d + 16 * d * n + 96 * n + 1536),
        "projectors": n * d * d * 16,
        "directions": 2 * d * d * (3 * m - 1) * 8,
        "copies": 8 * n * d * 16,
        "factor": n * n * 8,
        "flat": 3 * n * d * d * 8,
        "json": d**3 * 512,
    }
    return sum(sizes[name] for name in _SETUP_ARRAYS[command])


def require_memory(d: int, command: str, families: int | None = None) -> None:
    """Raise TooLarge when :func:`setup_bytes` exceeds the machine's physical memory."""
    need, have = setup_bytes(d, command, families), _physical_memory()
    if have is not None and need > have:
        raise TooLarge(f"{command} at d={d} needs about {need / 2**30:.1f} GiB, the machine has {have / 2**30:.1f} GiB")


def _physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError):
        return None


def _ginibre_states(rngs, d: int) -> np.ndarray:
    """The (m, d, d) stack of g g^H / tr(g g^H), one complex Ginibre draw g per generator, its real part drawn first."""
    draws = np.array([rng.standard_normal((2, d, d)) for rng in rngs])
    g = draws[:, 0] + 1j * draws[:, 1]
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / rho.trace(axis1=-2, axis2=-1).real[:, None, None]


def _ginibre_state(rng: np.random.Generator, d: int) -> np.ndarray:
    return _ginibre_states([rng], d)[0]


def probe_conjecture(config: SampleConfig, out_dir: str | Path | None = None) -> ProbeReport:
    """Classify seeded samples by classicality and hull membership.

    Counts sum to n_samples. A classical sample whose hull distance exceeds
    ten times the reconstruction tolerance is archived (when out_dir is
    given) together with a manifest carrying its full provenance. Samples
    are independent given their per-index derived seeds, so the tallies are
    order-independent. The basis pair, the family-built hull system and
    the perturbation directions are built once per call, after a memory
    estimate (:func:`setup_bytes`) that raises TooLarge when it exceeds the
    machine's physical memory; per sample only the draw and its verdict
    remain, tables and hull solves are made in stacks of :func:`stack_height`
    samples, and samples are drawn, tallied and archived in index order.
    solver_failures counts every sample whose hull solve did not converge,
    non-classical ones included; a classical sample among them is counted
    as classical_not_member, never archived, and left out of worst_margin,
    which is the largest distance among solved classical non-members.
    """
    tol = config.tolerances
    require_memory(config.d, config.mode)
    pair = dft_pair(config.d)
    # The direction basis is built first, so that its SVD workspace is freed
    # before the hull system is allocated.
    directions = perturbation_basis(None, pair) if config.mode == "perturb" else None
    families = pure_kd_set(pair)
    system = hull_system(families)
    projectors = all_projectors(families)[0] if config.mode == "hull" else None

    counts = {"classical_and_member": 0, "classical_not_member": 0, "not_classical": 0}
    worst_margin = 0.0
    solver_failures = 0
    candidates: list[tuple[int, np.ndarray, float]] = []
    start = time.perf_counter()

    height = stack_height(config.d)
    for first in range(0, config.n_samples, height):
        indices = range(first, min(first + height, config.n_samples))
        if config.mode == "hull":
            states = np.array([_simplex_mixture(_rng(config.seed, index), projectors) for index in indices])
        elif config.mode == "perturb":  # each draw seeds its own generator
            states = np.array([sample_kd_boundary(config, directions, index=index) for index in indices])
        else:
            states = _ginibre_states([_rng(config.seed, index) for index in indices], config.d)
        verdicts = [classicality(table, tol) for table in kd_table(states, pair)]

        memberships = hull_membership(states, system, tol)
        for index, rho, verdict, membership in zip(indices, states, verdicts, memberships):
            if membership is None:
                solver_failures += 1
            if not verdict.classical:
                counts["not_classical"] += 1
            elif membership is not None and membership.member:
                counts["classical_and_member"] += 1
            else:
                counts["classical_not_member"] += 1
                if membership is not None:
                    worst_margin = max(worst_margin, membership.distance)
                    if membership.distance > 10 * tol.recon:
                        candidates.append((index, rho, membership.distance))

    files: list[str] = []
    if out_dir is not None and candidates:
        files = _archive(config, candidates, Path(out_dir))

    notes = [PERTURB_COVERAGE_NOTE] if config.mode == "perturb" else []
    return ProbeReport(
        counts=counts,
        worst_margin=worst_margin,
        counterexample_files=tuple(files),
        runtime_ms=int((time.perf_counter() - start) * 1000),
        solver_failures=solver_failures,
        notes=tuple(notes),
    )


def _archive(config: SampleConfig, candidates, out_dir: Path) -> list[str]:
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    entries = []
    for index, rho, margin in candidates:
        name = f"counterexample_{index:05d}.json"
        path = out_dir / name
        path.write_text(json.dumps(matrix_to_json(rho)), encoding="utf-8")
        files.append(str(path))
        entries.append({"sample_index": index, "file": name, "margin": margin})
    manifest = {
        "d": config.d,
        "seed": config.seed,
        "mode": config.mode,
        "n_samples": config.n_samples,
        "tolerances": {
            "eig_psd": config.tolerances.eig_psd,
            "classicality": config.tolerances.classicality,
            "rank_rel": config.tolerances.rank_rel,
            "recon": config.tolerances.recon,
        },
        "candidates": entries,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, allow_nan=False), encoding="utf-8")
    return files
