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
(:class:`~kdclassical.geometry.HullSystem`), the projectors in hull mode
and, in perturb mode, the traceless direction basis
(:class:`PerturbationBasis`). Per sample only the draw, its table and its
hull solve remain.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dft import BasisPair, dft_pair
from .engine import classicality, kd_table
from .exceptions import BadDimension, SolverDidNotConverge, TooLarge, ZeroDirection
from .families import all_projectors, factorizations, pure_kd_set
from .geometry import hull_membership, hull_system, stack_real
from .kdreal import kd_real_basis, kd_real_condition
from .linalg import Tolerances, matrix_to_json

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


def traceless_real_table_directions(f_basis, d: int) -> np.ndarray:
    """Orthonormal stacked-real basis of the traceless part of span(f_basis)."""
    if not kd_real_condition(np.asarray(f_basis, dtype=np.complex128), 1e-9):
        raise ValueError("basis member does not have an entrywise-real table")
    eye = np.eye(d, dtype=np.complex128)
    # Per member on purpose: one stacked traceless array here raises the
    # probe's peak RSS at d = 30 through heap fragmentation.
    traceless = [f - (np.trace(f) / d) * eye for f in f_basis]
    block = stack_real(traceless)
    u, sigma, _ = np.linalg.svd(block, full_matrices=False)
    keep = sigma > 1e-12 * (sigma[0] if sigma.size else 1.0)
    return u[:, keep]


@dataclass(frozen=True)
class PerturbationBasis:
    """Traceless real-table directions and the basis pair, built once for many draws.

    ``sample_kd_boundary`` accepts one in place of an operator basis and then
    skips rebuilding the directions; the draws are identical either way.
    """

    pair: BasisPair
    directions: np.ndarray


def perturbation_basis(f_basis, pair: BasisPair) -> PerturbationBasis:
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

    ``f_basis`` is a list of operators with all-real tables, or a
    :class:`PerturbationBasis` built from one with :func:`perturbation_basis`.
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
    if float(np.linalg.norm(f)) < 1e-14:
        raise ZeroDirection("drawn direction is numerically zero")
    f_max = float(np.abs(np.linalg.eigvalsh(f)).max())
    q_max = float(np.abs(kd_table(f, basis.pair).values).max())
    # Table entries of I/d are 1/d^2, so nonnegativity of the table needs the
    # d^2 denominator; eigenvalues of I/d are 1/d, hence the d denominator.
    x_plus = min(1.0 / (d * f_max), 1.0 / (d * d * q_max))
    x = float(rng.uniform(0.0, x_plus))
    return perturbation_state(f, x, d)


# The arrays each entry point builds, as named in :func:`setup_bytes`.
_SETUP_ARRAYS = {
    "probe": ("projectors", "stack", "gram"),
    "member": ("projectors", "stack", "gram", "eigh"),
    "span-rank": ("projectors", "flat"),
    "pure": ("projectors", "json"),
}


def setup_bytes(d: int, perturb: bool, command: str = "probe", families: int | None = None) -> int:
    """Estimated peak bytes of the arrays ``command`` builds at dimension d, computed without building them.

    With n = d x ``families`` projectors (all d tau(d) by default):

    - projectors: n d^2 complex, built as dense matrices;
    - stack: the stacked matrix and its ``vstack`` copy (2 x 2d^2 x n
      reals), both alive with the projectors inside ``stack_real``;
    - gram: n x n reals;
    - eigh: the Gram's eigenvectors with LAPACK's workspace of about twice
      as much, then the eigenvectors with the pseudo-inverse (3 n^2 reals);
    - flat: the n x d^2 real rows of ``real_span_rank``, the list they are
      built from and the SVD's copy (3 n d^2 reals);
    - json: one family of d members written by ``kd pure``, 512 bytes per
      matrix entry (its Python floats and lists, then its text as str and
      as bytes: about 380 bytes as tracemalloc counts them);
    - in perturb mode, the 2d^2 x r direction basis, r = d - 1 +
      sum_k gcd(k, d) being the traceless part of the real-table space.

    ``command`` is "probe", "member", "span-rank" or "pure".
    """
    n = d * (len(factorizations(d)) if families is None else families)
    sizes = {
        "projectors": n * d * d * 16,
        "stack": 2 * 2 * d * d * n * 8,
        "gram": n * n * 8,
        "eigh": 3 * n * n * 8,
        "flat": 3 * n * d * d * 8,
        "json": d**3 * 512,
    }
    rank = d - 1 + sum(math.gcd(k, d) for k in range(1, d)) if perturb else 0
    return sum(sizes[name] for name in _SETUP_ARRAYS[command]) + 2 * d * d * rank * 8


def require_memory(d: int, command: str, perturb: bool = False, families: int | None = None) -> None:
    """Raise TooLarge when :func:`setup_bytes` exceeds the machine's physical memory."""
    need, have = setup_bytes(d, perturb, command, families), _physical_memory()
    if have is not None and need > have:
        raise TooLarge(f"{command} at d={d} needs about {need / 2**30:.1f} GiB, the machine has {have / 2**30:.1f} GiB")


def _physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError):
        return None


def _ginibre_state(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def probe_conjecture(config: SampleConfig, out_dir: str | Path | None = None) -> ProbeReport:
    """Classify seeded samples by classicality and hull membership.

    Counts sum to n_samples. A classical sample whose hull distance exceeds
    ten times the reconstruction tolerance is archived (when out_dir is
    given) together with a manifest carrying its full provenance. Samples
    are independent given their per-index derived seeds, so the tallies are
    order-independent. The basis pair, the family-built hull system and
    the perturbation directions are built once per call, after a memory
    estimate (:func:`setup_bytes`) that raises TooLarge when it exceeds the
    machine's physical memory; per sample only the draw, its table and its
    hull solve remain.
    solver_failures counts every sample whose hull solve did not converge,
    non-classical ones included; a classical sample among them is counted
    as classical_not_member, never archived, and left out of worst_margin,
    which is the largest distance among solved classical non-members.
    """
    tol = config.tolerances
    perturb = config.mode == "perturb"
    require_memory(config.d, "probe", perturb)
    pair = dft_pair(config.d)
    # The direction basis is built before the stacked projectors, so that
    # its SVD workspace is freed before they are allocated.
    directions = perturbation_basis(kd_real_basis(config.d), pair) if perturb else None
    families = pure_kd_set(pair)
    system = hull_system(families)
    projectors = all_projectors(families)[0] if config.mode == "hull" else None

    counts = {"classical_and_member": 0, "classical_not_member": 0, "not_classical": 0}
    worst_margin = 0.0
    solver_failures = 0
    candidates: list[tuple[int, np.ndarray, float]] = []
    start = time.perf_counter()

    for index in range(config.n_samples):
        rng = _rng(config.seed, index)
        if config.mode == "hull":
            rho = _simplex_mixture(rng, projectors)
        elif config.mode == "perturb":
            rho = sample_kd_boundary(config, directions, index=index)
        else:
            rho = _ginibre_state(rng, config.d)

        verdict = classicality(kd_table(rho, pair), tol)
        try:
            membership = hull_membership(rho, system, tol)
        except SolverDidNotConverge:
            solver_failures += 1
            membership = None

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
