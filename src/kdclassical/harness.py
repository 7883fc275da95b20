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
remain; the tables, their classicality, the Ginibre products g g^H and the
hull solves are made per stack of samples (:data:`STACK_BYTES`), each state
getting what it gets alone, and a stack's results are released before the
next stack is drawn.

Sample i of seed s is drawn from the generator
``default_rng(SeedSequence(s, spawn_key=(i,)))`` would give, bit for bit.
No SeedSequence is built per sample: numpy's SeedSequence hash, fixed by
NEP 19, is computed for a whole block of indices at once on uint32 arrays
(:func:`seed_words`), and one reused generator has its PCG64 state set to
each index's in turn (:func:`_generators`). Every probe mode and the public
single draws (:func:`sample_hull_point`, :func:`sample_kd_boundary`) take
their generator from that one path, which checks its first index's words
against numpy's own SeedSequence once per call.
"""

from __future__ import annotations

import json
import numbers
import os
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from itertools import islice
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
        return asdict(self)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), whose stream
# NEP 19 keeps fixed: the pool size, the hashmix and mix constants, and the
# shift that folds a word's high half into its low half.
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (numpy's PCG_DEFAULT_MULTIPLIER_HIGH, _LOW).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1

# Indices whose seed words are hashed together, so that a call's hashing
# holds a fixed amount of memory (a few hundred bytes per index) however
# many samples it draws.
SEED_BLOCK = 1024


def _words32(n: int) -> list[int]:
    """n as 32-bit words, least significant first, and [0] for 0, as SeedSequence takes an integer."""
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's hashmix of a word, a Python int or a uint32 array: (the hashed word, the next hash constant)."""
    after = const * mult & _M32
    value = (value ^ const) * after & _M32
    return value ^ value >> 16, after


def _mix(x, y):
    """SeedSequence's mix of a pool word x with a hashed word y; either may be a uint32 array."""
    mixed = (_MIX_L * x & _M32) - (_MIX_R * y & _M32) & _M32
    return mixed ^ mixed >> 16


def seed_words(seed: int, start: int, stop: int) -> np.ndarray:
    """The (stop - start, 4) uint64 words ``SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64)`` for i in [start, stop).

    SeedSequence's own steps, in its order, with each index word a uint32
    array over the indices (whose products wrap without a warning) and
    every other word a Python int. The pool's four words hold the seed
    alone, padded with zeros; the words past them, the seed's fifth and
    later and then the index's, are mixed into all four. Indices with as
    many words are hashed together.
    """
    seed, start, stop = int(seed), int(start), int(stop)  # numpy integers would warn on overflow
    runs = []
    while start < stop:
        first = _words32(start)
        end = min(stop, 1 << 32 * len(first))  # past the last index with as many words
        carry, words = np.arange(end - start, dtype=np.uint64), []
        for word in first:  # start + offset, one 32-bit word at a time
            total = carry + word
            words.append((total & _M32).astype(np.uint32))
            carry = total >> 32
        entropy = _words32(seed)
        entropy += [0] * (_POOL - len(entropy)) + words
        const, pool = _INIT_A, []
        for word in entropy[:_POOL]:
            value, const = _hashmix(word, const)
            pool.append(value)
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    value, const = _hashmix(pool[src], const)
                    pool[dst] = _mix(pool[dst], value)
        for word in entropy[_POOL:]:
            for dst in range(_POOL):
                value, const = _hashmix(word, const)
                pool[dst] = _mix(pool[dst], value)
        const, out = _INIT_B, []
        for k in range(2 * _POOL):  # generate_state(4, np.uint64): eight 32-bit words, little-endian pairs
            value, const = _hashmix(pool[k % _POOL], const, _MULT_B)
            out.append(value)
        runs.append(np.stack(out, axis=1).astype("<u4").view("<u8"))
        start = end
    return np.concatenate(runs).astype(np.uint64)


def _generators(seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """For each i in [start, stop), a generator in the state ``default_rng(SeedSequence(seed, spawn_key=(i,)))`` starts in.

    It is one generator, reused: each is drawn from before the next is
    taken. Its PCG64 state is set from the index's :func:`seed_words`
    (initstate, then initseq, as two 128-bit halves) as PCG64 seeds itself,
    inc = 2 initseq + 1 and state = (inc + initstate) MULT + inc mod 2^128,
    with no buffered 32-bit half. The words are hashed :data:`SEED_BLOCK`
    indices at a time, and the first index's are checked against numpy's
    own SeedSequence: a numpy whose hash differs raises rather than change
    the draws.
    """
    if start >= stop:
        return
    reference = np.random.SeedSequence(seed, spawn_key=(start,)).generate_state(4, np.uint64)
    # A single draw takes numpy's words as they are: hashing them again would only be checked against them.
    words = reference[None] if stop - start == 1 else seed_words(seed, start, min(stop, start + SEED_BLOCK))
    if not np.array_equal(words[0], reference):
        raise RuntimeError(f"numpy's SeedSequence no longer hashes seed {seed}, index {start} as harness.seed_words does")
    rng = np.random.Generator(np.random.PCG64(0))  # a fixed seed: PCG64() would read OS entropy
    bits = rng.bit_generator
    for first in range(start, stop, SEED_BLOCK):
        if first != start:
            words = seed_words(seed, first, min(stop, first + SEED_BLOCK))
        for state_high, state_low, seq_high, seq_low in words.tolist():
            inc = ((seq_high << 64 | seq_low) << 1 | 1) & _M128
            state = ((inc + (state_high << 64 | state_low)) * _PCG_MULT + inc) & _M128
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
            yield rng


def _simplex_mixtures(rngs, projectors) -> np.ndarray:
    """The (m, d, d) stack of flat-simplex mixtures of the projector list, one Dirichlet draw per generator.

    Each state is summed as if drawn alone: from zeros, one projector at a time in list order.
    """
    weights = np.array([rng.dirichlet(np.ones(len(projectors))) for rng in rngs])
    out = np.zeros((len(weights), *np.shape(projectors[0])), dtype=np.complex128)
    for k, proj in enumerate(projectors):
        out += weights[:, k, None, None] * proj
    return out


def sample_hull_point(config: SampleConfig, projectors, index: int = 0) -> np.ndarray:
    """One flat-simplex mixture of the projector list; always a density matrix."""
    if not projectors:
        raise ValueError("projector list must be nonempty")
    return _simplex_mixtures(_generators(config.seed, index, index + 1), projectors)[0]


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
    """Directions of the whole all-real-table space for None, or of a list of operators spanning a subspace of it.

    Raises ZeroDirection when there is none to draw from.
    """
    directions = traceless_real_table_directions(f_basis, pair.dim)
    if directions.shape[1] == 0:
        raise ZeroDirection("basis has no traceless component")
    return PerturbationBasis(pair=pair, directions=directions)


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
    return _boundary_draw(next(_generators(config.seed, index, index + 1)), basis)


def _boundary_draw(rng: np.random.Generator, basis: PerturbationBasis) -> np.ndarray:
    """The line-perturbation sample of :func:`sample_kd_boundary`, from a generator in its index's state."""
    d, directions = basis.pair.dim, basis.directions
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
# height: at d = 6 a stack costs about 3 ms besides 26 us a state. The
# bytes a stack holds per state, the solver's factor buffers and the
# samples' arrays as :func:`setup_bytes` counts them, are held to this
# many: 280 states at d = 6 (n = 24), so that a probe call of a few hundred
# samples is one stack, 199 at d = 9, 39 at d = 12, 31 at d = 16 and 5 at
# d = 30 (n = 240); a stack of one, like any single query, once a state
# takes more than half of them (d = 48, n = 480, is the first, and every
# d above 113). The buffers start narrow and widen with the widest free
# set. A stack that leaves the solver too few undecided states for its
# stacked loop solves them one by one and shares only the input checks,
# h, the Weyl step and the residual.
STACK_BYTES = 4 * 1024 * 1024


def _stack_state_bytes(d: int, n: int) -> int:
    """The bytes a probe stack holds per state, as :func:`setup_bytes` counts its "stack" term."""
    return stack_buffer_bytes(1, n) + 64 * d * d + 16 * d * n + 96 * n + 768


def stack_height(d: int) -> int:
    """States per stack of a probe at dimension d: :data:`STACK_BYTES` over the bytes a state of the stack holds, with all n = d tau(d) projectors."""
    return max(1, STACK_BYTES // _stack_state_bytes(d, d * len(factorizations(d))))


# The arrays each probe mode and command builds, as named in :func:`setup_bytes`.
_SETUP_ARRAYS = {
    "hull": ("states", "overlaps", "gram", "spectrum", "stack", "projectors"),
    "perturb": ("states", "overlaps", "gram", "spectrum", "stack", "directions"),
    "ginibre": ("states", "overlaps", "gram", "stack"),
    "member": ("states", "gram", "spectrum", "copies"),
    "span-rank": ("projectors", "flat"),
    "pure": ("json",),
    "dft": ("transition",),
    "categories": ("cells",),
}


def setup_bytes(d: int, command: str, families: int | None = None) -> int:
    """Bytes of the arrays ``command`` builds at dimension d, computed without building them.

    ``command`` is a probe mode ("hull", "perturb", "ginibre"), "member",
    "span-rank", "pure", "dft", "categories" or "verify". With n = d x
    ``families`` projectors (all d tau(d) by default; only "span-rank"
    chooses fewer):

    - states: the d x n state vectors (complex) and the d x d Weyl weights
      of a family-built hull system;
    - overlaps: the n x n complex V^dag V its Gram is computed from;
    - gram: n x n reals;
    - spectrum: the ``eigh`` of the Gram, run when a finite min-norm step
      fails: its n x n eigenvectors and n eigenvalues, and LAPACK's copy
      of the Gram and syevd workspace (2 n^2 + 11 n + 4 words), which
      numpy takes from plain malloc, out of tracemalloc's sight; 4 n^2 +
      16 n reals cover them, and the kernel copied out after. Not for
      "ginibre": a Ginibre state lies off the span;
    - stack: per state of one stack of :func:`stack_height` states, the
      solver's factor buffers at full width, n x (n + 2) reals, and the
      narrower copy they last grew from; four d x d complex arrays (the
      most alive at once among the state, its draw, its table's product
      and values, its Weyl coefficients and its residual), one d x n
      complex product (h's or the residual's), twelve n-vectors of reals
      (h, the candidates, the coefficients, the solver's per-row arrays)
      and 768 bytes of Python objects (this stack's verdicts; the last
      stack's are released before the next is drawn). The stack height
      is sized from the same bytes;
    - projectors: n d^2 complex, built as dense matrices;
    - directions: the 2d^2 x m traceless block, m being the real-table
      dimension, the SVD's left factor of the same shape, and the
      2d^2 x (m - 1) directions copied out of it;
    - copies: six d x n complex arrays of state vectors (the families'
      own, V^dag, the products of a pass over the states: a few alive at
      once, and room for allocator and BLAS buffers). "member" counts no
      overlaps (freed before the spectrum, half its size) and no solver
      factor (after it, 2 n^2 reals beside the n^2 it leaves cached);
    - flat: the n x d^2 real rows of ``real_span_rank``, the list they are
      built from and the SVD's copy (3 n d^2 reals);
    - json: one family of d members written by ``kd pure``, 512 bytes per
      matrix entry (its Python floats and lists, then its text as str and
      as bytes: about 380 bytes as tracemalloc counts them);
    - transition: the d x d int64 exponents and complex transition matrix
      of ``kd dft``, and its JSON at 512 bytes per entry, as for ``json``;
    - cells: the d^2 cell tuples of ``kd categories``' entry partition at
      128 bytes each (the tuple, its two ints and its slot) and its JSON at
      384 bytes per cell (a list per cell, then the text and the encoder's
      pieces: 200 to 330 bytes per cell at d = 100 to 400).

    "verify" runs its checks one after another, so its estimate is the
    largest of them: the real-table battery (the dense basis of m members,
    held twice while it is stacked, and the one drawn operator of 16 d^2 +
    256 bytes alive at a time), the dimension triple, which runs at
    d <= 16 (the d^2 dense parameter matrices, their table product and
    values, and as much again for the temporaries and table objects beside
    them: 64 d^4 bytes), and the perturb and hull probe set-ups, which the
    round-trip and probe checks build.

    Only what the named arrays use is computed: n, m and the stack height
    take time at large d, and "pure", "dft" and "categories" use none.
    """
    if d < 1:  # before any command's arrays: kd pure would make its output directory first
        raise ValueError("dimension must be a positive integer")
    if families is not None and families < 1:
        raise ValueError(f"need at least one family, got {families}")
    if command == "verify":
        battery = 32 * kd_real_dimension(d) * d * d + 16 * d * d + 256
        return max(battery, 64 * d**4 if d <= 16 else 0, setup_bytes(d, "perturb"), setup_bytes(d, "hull"))
    names = _SETUP_ARRAYS[command]
    n = 0 if command in ("pure", "dft", "categories") else d * (len(factorizations(d)) if families is None else families)
    m = kd_real_dimension(d) if "directions" in names else 0
    height = stack_height(d) if "stack" in names else 0
    sizes = {
        "states": n * d * 16 + d * d * 8,
        "overlaps": n * n * 16,
        "gram": n * n * 8,
        "spectrum": (4 * n * n + 16 * n) * 8,
        "stack": height * _stack_state_bytes(d, n),
        "projectors": n * d * d * 16,
        "directions": 2 * d * d * (3 * m - 1) * 8,
        "copies": 6 * n * d * 16,
        "flat": 3 * n * d * d * 8,
        "json": d**3 * 512,
        "transition": d * d * (8 + 16 + 512),
        "cells": d * d * (128 + 384),
    }
    return sum(sizes[name] for name in names)


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

    rngs = _generators(config.seed, 0, config.n_samples)
    height = stack_height(config.d)
    for first in range(0, config.n_samples, height):
        indices = range(first, min(first + height, config.n_samples))
        draws = islice(rngs, len(indices))
        if config.mode == "hull":
            states = _simplex_mixtures(draws, projectors)
        elif config.mode == "perturb":
            states = np.array([_boundary_draw(rng, directions) for rng in draws])
        else:
            states = _ginibre_states(draws, config.d)
        classical = classicality(kd_table(states, pair), tol).each.tolist()

        memberships = hull_membership(states, system, tol)
        for index, rho, is_classical, membership in zip(indices, states, classical, memberships):
            if membership is None:
                solver_failures += 1
            if not is_classical:
                counts["not_classical"] += 1
            elif membership is not None and membership.member:
                counts["classical_and_member"] += 1
            else:
                counts["classical_not_member"] += 1
                if membership is not None:
                    worst_margin = max(worst_margin, membership.distance)
                    if membership.distance > 10 * tol.recon:
                        candidates.append((index, rho.copy(), membership.distance))  # not a view that keeps the stack
        # This stack's states and verdicts go before the next stack is drawn.
        del states, classical, memberships, rho, membership

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
        "tolerances": asdict(config.tolerances),
        "candidates": entries,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, allow_nan=False), encoding="utf-8")
    return files
