"""Convex geometry of the classical-state set: spans, decompositions, hulls.

Projector lists are treated as real vectors via the Frobenius-isometric
stacking of real and imaginary parts, so least-squares residuals in the
stacked coordinates equal Frobenius distances between matrices. The
family projectors are rank one, and a hull system built from families
works on their state vectors instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dft import BasisPair
from .engine import KDTable, classicality, kd_table
from .exceptions import (
    BadDimension,
    ConditionsFailed,
    NotClassical,
    NotInSpan,
    NotUnitTrace,
)
from .families import PureFamily, family_states, lettered_families, member_labels, prime_pair
from .linalg import DEFAULT_TOL, INPUT_GATE_TOL, Tolerances, _checked, as_matrix, require_hermitian
from .solver import simplex_least_squares

# Gram eigenvalues at or below this fraction of the largest are taken as zero
# in ``HullSystem.pinv_gram``. For the family lists the nonzero spectrum lies
# in [1, tau(d)] and the zero eigenvalues come out at 5e-15 or less, so the
# cutoff sits in a wide gap. A dropped eigenvalue that was not zero only
# makes the min-norm step fail its stationarity check.
PINV_CUTOFF = 1e-10


@dataclass(frozen=True)
class DecompositionCertificate:
    """Nonnegative coefficients over a labeled projector list reconstructing a state."""

    labels: tuple[str, ...]
    coefficients: np.ndarray
    residual: float
    coefficient_sum: float

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "coeffs": [float(c) for c in self.coefficients],
            "residual": self.residual,
            "coefficient_sum": self.coefficient_sum,
        }


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    certificate: DecompositionCertificate | None
    distance: float

    def to_json(self) -> dict:
        return {
            "member": self.member,
            "distance": self.distance,
            "certificate": None if self.certificate is None else self.certificate.to_json(),
        }


@dataclass(frozen=True)
class HullSystem:
    """A projector list prepared once, for many hull-membership queries.

    ``gram`` is the n x n matrix of Frobenius inner products <P_j, P_k>,
    shared by every query against the list.

    A system built from families is rank-one: it keeps their state vectors
    ``states`` (d x n, column k is psi_k), so that <P_j, P_k> =
    |<psi_j|psi_k>|^2 and <P_k, rho> = <psi_k|rho|psi_k>, and ``weights``,
    the d x d table of 1/c(a, b) with 0 where c = 0. Each family is an
    orthonormal basis whose diagonal operators are spanned by the Weyl
    operators X^a Z^b with p | a and q | b, so the frame operator
    S = sum_k |P_k><P_k| is diagonal in the Weyl basis with eigenvalue
    c(a, b) = #{families (p, q) : p | a, q | b}. That gives the distance of
    a state from the span and its min-norm coefficients in closed form.
    Those need no Gram, and :func:`decompose_pq_three`, which makes no hull
    query, builds its system without one (``gram`` is None).

    A system built from a plain projector list keeps ``matrix``, one
    stacked-real column per projector (``gram`` is ``matrix.T @ matrix``),
    ``pinv_gram``, the pseudo-inverse of ``gram`` (see :data:`PINV_CUTOFF`),
    so that pinv(matrix) @ vec(rho) = pinv_gram @ (matrix.T @ vec(rho)), and
    ``kernel``, the eigenvectors the cutoff drops: an orthonormal basis of
    ker ``gram`` for the solver's kernel step. That layout's only job is to serve
    callers that pass a projector list of their own: every hull and span
    query the package makes itself runs on a family-built system.
    """

    gram: np.ndarray | None
    states: np.ndarray | None = None
    weights: np.ndarray | None = None
    matrix: np.ndarray | None = None
    pinv_gram: np.ndarray | None = None
    kernel: np.ndarray | None = None

    @property
    def dim(self) -> int:
        """d of the d x d operators the system describes."""
        return self.states.shape[0] if self.states is not None else math.isqrt(self.matrix.shape[0] // 2)

    # Each method takes one state's data or a stack of them, one per state
    # along the leading axis, and gives a stacked state the same bits as the
    # state alone.

    def off_span_distance(self, coeffs: np.ndarray):
        """Frobenius distance of rho from the span, from its Weyl coefficients."""
        return np.sqrt(_squared_norms(coeffs[..., self.weights == 0.0]) / self.dim)

    def min_norm_coefficients(self, coeffs: np.ndarray) -> np.ndarray:
        """x_k = Re <psi_k| S^+ rho |psi_k>, the min-norm least-squares coefficients of rho."""
        return self.expectations(from_weyl(coeffs * self.weights))

    def expectations(self, op: np.ndarray) -> np.ndarray:
        """Re <psi_k|op|psi_k> for every state k; for op = rho these are h_k = <P_k, rho>.

        Returned contiguous: the solver reads h on every step.
        """
        return np.ascontiguousarray(np.einsum("ik,...ik->...k", self.states.conj(), op @ self.states).real)

    def residual(self, x: np.ndarray, rho: np.ndarray):
        """||sum_k x_k |psi_k><psi_k| - rho||_F, in primal coordinates."""
        r = np.matmul(self.states * x[..., None, :], self.states.conj().T)
        r -= rho
        return np.sqrt(_squared_norms(r.reshape(*r.shape[:-2], -1)))


def _squared_norms(v: np.ndarray):
    """|v|^2 along the last axis, one product per vector, which gives the bits of np.vdot(v, v).real."""
    return np.matmul(v.conj()[..., None, :], v[..., :, None])[..., 0, 0].real


def hull_system(source) -> HullSystem:
    """Prepare a projector list, or the states of a list of families.

    A system built from families is rank-one and carries the Weyl data of
    :class:`HullSystem`; no dense projector is built. One built from a list of
    finite d x d projectors (else ValueError) stacks it and keeps ``pinv_gram``
    and ``kernel``, from one eigendecomposition of the Gram.
    """
    if not len(source) or not isinstance(source[0], PureFamily):
        mat = stack_real(_checked(np.asarray(source, dtype=np.complex128), 3))  # ragged: ValueError from numpy
        gram = mat.T @ mat
        eig, vecs = np.linalg.eigh(gram)
        keep = eig > PINV_CUTOFF * eig[-1]
        kept = vecs[:, keep]
        return HullSystem(gram=gram, matrix=mat, pinv_gram=(kept / eig[keep]) @ kept.T, kernel=vecs[:, ~keep])
    states = np.hstack([fam.states for fam in source])
    gram = np.abs(states.conj().T @ states)
    gram *= gram
    return HullSystem(gram=gram, states=states, weights=_weyl_weights(source))


def _weyl_weights(families) -> np.ndarray:
    """1/c(a, b) for the families' frame multiplicities c, 0 where c = 0."""
    c = frame_multiplicities(families)
    return np.divide(1.0, c, out=np.zeros(c.shape), where=c > 0)


def frame_multiplicities(families) -> np.ndarray:
    """c[a, b] = #{families (p, q) : p | a, q | b}, the frame operator's eigenvalue on X^a Z^b."""
    idx = np.arange(families[0].dim)
    return sum(np.outer(idx % fam.p == 0, idx % fam.q == 0).astype(int) for fam in families)


def weyl_coefficients(rho: np.ndarray) -> np.ndarray:
    """rho_hat[a, b] = tr((X^a Z^b)^dag rho), where X^a Z^b |j> = w^(bj) |j + a>.

    Row a is the discrete Fourier transform over j of the cyclic diagonal
    rho[(j + a) mod d, j]. A stack of operators gives a stack of tables.
    """
    diagonals, dft = _weyl_frame(rho.shape[-1])
    return rho.reshape(*rho.shape[:-2], -1).take(diagonals, axis=-1) @ dft


def from_weyl(coeffs: np.ndarray) -> np.ndarray:
    """The operator (1/d) sum_ab coeffs[a, b] X^a Z^b; inverts :func:`weyl_coefficients`."""
    d = coeffs.shape[-1]
    diagonals, dft = _weyl_frame(d)
    out = np.empty((*coeffs.shape[:-2], d * d), dtype=np.complex128)
    out[..., diagonals] = coeffs @ dft.conj() / d  # the DFT matrix is symmetric
    return out.reshape(coeffs.shape)


@functools.lru_cache(maxsize=4)
def _weyl_frame(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat index of rho[(j + a) mod d, j] at [a, j], and the DFT matrix w^(-jb).

    A product with the d x d DFT matrix is faster than ``np.fft`` at the
    dimensions probed here and keeps that module out of the process.
    """
    j = np.arange(d)
    diagonals = (j + j[:, None]) % d * d + j
    dft = np.exp(-2j * np.pi * (np.outer(j, j) % d) / d)
    diagonals.setflags(write=False)
    dft.setflags(write=False)
    return diagonals, dft


def stack_real(matrices) -> np.ndarray:
    """Columns of [Re(flat); Im(flat)] per matrix; column norms are Frobenius norms."""
    block = np.asarray(matrices, dtype=np.complex128).reshape(len(matrices), -1).T
    return np.vstack([block.real, block.imag])


def reconstruct(projectors, coefficients: np.ndarray) -> np.ndarray:
    return np.tensordot(coefficients, np.asarray(projectors, dtype=np.complex128), axes=1)


def span_project(rho: np.ndarray, projectors) -> tuple[np.ndarray, float]:
    """Frobenius-orthogonal projection of rho onto the real span of the projectors."""
    a = as_matrix(rho)
    if not projectors:
        return np.zeros_like(a), float(np.linalg.norm(a))
    mat = stack_real(projectors)
    vec = stack_real([a]).reshape(-1)
    coeffs, *_ = np.linalg.lstsq(mat, vec, rcond=None)
    return reconstruct(projectors, coeffs), float(np.linalg.norm(mat @ coeffs - vec))


def quadruple_violation(table: KDTable, p: int) -> float:
    """Worst deviation from the residue-class quadruple identities at d = p^2.

    Within a row class {i : i = m mod p} the real table rows must differ by
    constants, and likewise for column classes; the violation is the largest
    spread of any such difference.
    """
    d = table.dim
    if d != p * p:
        raise BadDimension(f"table dim {d} is not {p}^2")
    q = table.values.real
    worst = 0.0
    for rows in (q, q.T):
        blocks = rows.reshape(p, p, d)  # [k, m]: row k*p + m, so blocks[:, m] is residue class m
        diffs = blocks[:, None] - blocks[None, :]  # all same-class row pairs
        worst = max(worst, float((diffs.max(axis=3) - diffs.min(axis=3)).max()))
    return worst


def quadruple_conditions_p2(table: KDTable, p: int, tol: float = 1e-9) -> bool:
    return quadruple_violation(table, p) <= tol


def decompose_p2(
    rho: np.ndarray, pair: BasisPair, p: int, tol: Tolerances = DEFAULT_TOL
) -> DecompositionCertificate:
    """Constructive hull certificate over A, B and the (p,p) family at d = p^2.

    Per residue-class grid the minimizing representative row i*(m) and column
    j*(s) are located (smallest index on ties); the basis coefficients are the
    marginal excesses over those representatives and the family coefficient is
    d times the table value at the representative cell. Under the quadruple
    identities every column gives the same excess, so the marginal form below
    evaluates the same quantity with the noise averaged out.
    """
    d = pair.dim
    if d != p * p:
        raise BadDimension(f"basis dim {d} is not {p}^2")
    table = kd_table(rho, pair)
    verdict = classicality(table, tol)
    if not verdict.classical:
        raise NotClassical(
            f"table has min real {verdict.min_real:.3e}, max |imag| {verdict.max_imag_abs:.3e}"
        )
    violation = quadruple_violation(table, p)
    if violation > tol.classicality:
        raise ConditionsFailed(f"quadruple identities violated by {violation:.3e}")

    q = table.values.real
    row_sums = q.sum(axis=1)
    col_sums = q.sum(axis=0)
    row_rep = np.array([m + p * int(np.argmin(row_sums[m::p])) for m in range(p)])
    col_rep = np.array([s + p * int(np.argmin(col_sums[s::p])) for s in range(p)])

    lam = row_sums - row_sums[row_rep[np.arange(d) % p]]
    mu = col_sums - col_sums[col_rep[np.arange(d) % p]]
    gamma = d * q[np.ix_(row_rep, col_rep)]

    states = np.hstack([np.eye(d), pair.transition, family_states(d, p, p)])
    labels = [f"A[{i}]" for i in range(d)] + [f"B[{j}]" for j in range(d)] + member_labels(p, p)
    coeffs = np.concatenate([lam, mu, gamma.reshape(-1)])
    return _certificate(rho, states, labels, coeffs)


def _certificate(rho, states: np.ndarray, labels, coeffs) -> DecompositionCertificate:
    """Certificate over the columns psi_k of ``states``; the residual is ||sum_k c_k |psi_k><psi_k| - rho||_F."""
    coeffs = np.where(np.abs(coeffs) < max(1e-14, len(coeffs) * 1e-16), 0.0, coeffs)
    coeffs = np.maximum(coeffs, 0.0)
    residual = float(np.linalg.norm((states * coeffs) @ states.conj().T - rho))
    return DecompositionCertificate(tuple(labels), coeffs, residual, float(coeffs.sum()))


def decompose_pq_three(
    rho: np.ndarray,
    pair: BasisPair,
    sets: tuple[str, str, str] = ("B", "C", "D"),
    tol: Tolerances = DEFAULT_TOL,
) -> DecompositionCertificate:
    """Certificate over three of the four families at d = pq, p != q prime.

    The state's span coefficients are its min-norm least-squares
    coefficients over the chosen families, in closed form from the frame
    operator of a family-built :class:`HullSystem` (Weyl-diagonal for any
    subset of families, with c counting the chosen ones). Per-class minima
    of the family coefficients are then folded through the resolution
    identities, which quotients out the span's kernel, so the certificate
    is that of any least-squares solution.
    """
    d = pair.dim
    primes = prime_pair(d)
    if primes is None:
        raise BadDimension(f"d={d} is not a product of two distinct primes")
    p, q = primes
    chosen = tuple(sets)
    if len(chosen) != 3 or len(set(chosen)) != 3 or not set(chosen) <= {"A", "B", "C", "D"}:
        raise ValueError("sets must be three distinct labels among A, B, C, D")
    rho = require_hermitian(rho, INPUT_GATE_TOL, d)

    fams = list(lettered_families(pair, chosen).values())
    # The Weyl data alone: no hull query is made, so no Gram is built.
    system = HullSystem(gram=None, states=np.hstack([fam.states for fam in fams]), weights=_weyl_weights(fams))
    labels = [label for fam in fams for label in fam.labels()]
    weyl = weyl_coefficients(rho)
    span_residual = system.off_span_distance(weyl)
    if span_residual > tol.recon:
        raise NotInSpan(f"projection residual {span_residual:.3e} exceeds {tol.recon:.1e}")
    verdict = classicality(kd_table(rho, pair), tol)
    if not verdict.classical:
        raise NotClassical(
            f"table has min real {verdict.min_real:.3e}, max |imag| {verdict.max_imag_abs:.3e}"
        )

    parts = dict(zip(chosen, np.split(system.min_norm_coefficients(weyl), 3)))
    idx = np.arange(d)
    if "C" in parts and "D" in parts:
        # Per b-class (s = j mod q for C, j mod p for D) into B, or per a-class into A.
        axis, basis = (0, "B") if "B" in parts else (1, "A")
        gamma, eta = parts["C"].reshape(p, q), parts["D"].reshape(q, p)
        g0, e0 = gamma.min(axis=axis), eta.min(axis=axis)
        parts["C"] = (gamma - np.expand_dims(g0, axis)).reshape(-1)
        parts["D"] = (eta - np.expand_dims(e0, axis)).reshape(-1)
        parts[basis] = parts[basis] + g0[idx % g0.size] + e0[idx % e0.size]
    else:
        fam_name = "C" if "C" in parts else "D"
        fp, fq = (p, q) if fam_name == "C" else (q, p)
        l0 = parts["A"].reshape(fq, fp).min(axis=0)  # per a-class m = i mod fp
        u0 = parts["B"].reshape(fp, fq).min(axis=0)  # per b-class s = j mod fq
        parts["A"] = parts["A"] - l0[idx % fp]
        parts["B"] = parts["B"] - u0[idx % fq]
        parts[fam_name] = parts[fam_name] + (l0[:, None] + u0[None, :]).reshape(-1)

    shifted = np.concatenate([parts[name] for name in chosen])
    return _certificate(rho, system.states, labels, shifted)


def hull_membership(
    rho: np.ndarray,
    projectors,
    tol: Tolerances = DEFAULT_TOL,
    labels=None,
) -> MembershipVerdict | list[MembershipVerdict | None]:
    """Distance minimization over convex combinations of the projector list.

    ``projectors`` is a list of projectors or of families, or a
    :class:`HullSystem` built with :func:`hull_system` from either when many
    states are tested against it; a state of another dimension raises
    MixedDimensions before any arithmetic on it.

    The solver works on the Gram and h_k = <P_k, rho>, computed once per
    query from the system's state vectors or stacked matrix. Its first step
    is the state's min-norm coefficients, kept when they are feasible and
    stationary: from the Weyl coefficients for a system built from families
    (only for a state within ``tol.recon`` of their span), and from
    ``pinv_gram`` for one built from a list, which passes its ``kernel`` too.
    The distance is computed in primal coordinates.

    Against a system built from families, ``rho`` may also be a stack of m
    states, an (m, d, d) array or a list of d x d states; a single state is
    decided as a stack of one, on the same path. A stack is checked as a
    whole, and a bad state in it raises what it raises alone. It gives a
    list of m verdicts, each the one its state gets alone, None where the
    solve did not converge; a single state gives its verdict or raises
    SolverDidNotConverge (the failure convention of :mod:`~kdclassical.solver`).
    """
    system = projectors if isinstance(projectors, HullSystem) else hull_system(projectors)
    if isinstance(rho, (list, tuple)) and rho and np.ndim(rho[0]) == 2:  # a list of states, which may not stack
        for state in rho:
            if np.shape(state) != (system.dim, system.dim):
                require_hermitian(state, INPUT_GATE_TOL, system.dim)
    a = require_hermitian(rho, INPUT_GATE_TOL, system.dim)
    trace = a.trace(axis1=-2, axis2=-1)
    off = np.abs(trace - 1.0) > INPUT_GATE_TOL
    if off.any():
        raise NotUnitTrace(f"trace is {complex(trace[off][0])!r}, expected 1")
    if system.states is None:
        if a.ndim == 3:
            raise ValueError("a stack of states needs a system built from families")
        vec = stack_real([a]).reshape(-1)
        h = system.matrix.T @ vec
        coeffs = simplex_least_squares(system.gram, h, candidate=system.pinv_gram @ h, kernel=system.kernel)
        return _verdict(coeffs, math.sqrt((r := system.matrix @ coeffs - vec) @ r), tol, labels)  # np.linalg.norm's bits
    stack = a.reshape(-1, system.dim, system.dim)  # a single state is a stack of one
    h = system.expectations(stack)
    weyl = weyl_coefficients(stack)
    near = system.off_span_distance(weyl) <= tol.recon
    candidate = None
    if near.any():  # NaN: no candidate for a state off the span
        candidate = np.where(near[:, None], system.min_norm_coefficients(weyl), np.nan)
    # A single state's h goes in 1-D, so that a solve that does not converge raises.
    coeffs = simplex_least_squares(system.gram, h.reshape(*a.shape[:-2], -1), candidate=candidate).reshape(h.shape)
    distance = system.residual(coeffs, stack)
    failed = np.isnan(coeffs).any(axis=1).tolist()
    verdicts = [None if bad else _verdict(c, dist, tol, labels) for c, dist, bad in zip(coeffs, distance.tolist(), failed)]
    return verdicts if a.ndim == 3 else verdicts[0]


def _verdict(coeffs: np.ndarray, distance, tol: Tolerances, labels) -> MembershipVerdict:
    distance = float(distance)
    if not distance <= tol.recon:  # NaN included
        return MembershipVerdict(member=False, certificate=None, distance=distance)
    labels = tuple(labels) if labels is not None else tuple(f"P[{k}]" for k in range(len(coeffs)))
    certificate = DecompositionCertificate(labels, coeffs, distance, float(coeffs.sum()))
    return MembershipVerdict(member=True, certificate=certificate, distance=distance)
