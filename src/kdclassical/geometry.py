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
from .linalg import DEFAULT_TOL, Tolerances, as_matrix, require_hermitian
from .solver import simplex_least_squares

# Input gates are fixed; the Tolerances fields govern verdict acceptance.
INPUT_GATE_TOL = 1e-9

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

    A system built from a plain projector list keeps ``matrix``, one
    stacked-real column per projector (``gram`` is ``matrix.T @ matrix``),
    and ``pinv_gram``, the pseudo-inverse of ``gram`` (see
    :data:`PINV_CUTOFF`); then pinv(matrix) @ vec(rho) =
    pinv_gram @ (matrix.T @ vec(rho)).
    """

    gram: np.ndarray
    states: np.ndarray | None = None
    weights: np.ndarray | None = None
    matrix: np.ndarray | None = None
    pinv_gram: np.ndarray | None = None

    def off_span_distance(self, coeffs: np.ndarray) -> float:
        """Frobenius distance of rho from the span, from its Weyl coefficients."""
        off = coeffs[self.weights == 0.0]
        return float(np.sqrt(np.vdot(off, off).real / coeffs.shape[0]))

    def min_norm_coefficients(self, coeffs: np.ndarray) -> np.ndarray:
        """x_k = Re <psi_k| S^+ rho |psi_k>, the min-norm least-squares coefficients of rho."""
        return self.expectations(from_weyl(coeffs * self.weights))

    def expectations(self, op: np.ndarray) -> np.ndarray:
        """Re <psi_k|op|psi_k> for every state k; for op = rho these are h_k = <P_k, rho>.

        Returned contiguous: the solver reads h on every step.
        """
        return np.ascontiguousarray(np.einsum("ik,ik->k", self.states.conj(), op @ self.states).real)

    def residual(self, x: np.ndarray, rho: np.ndarray) -> float:
        """||sum_k x_k |psi_k><psi_k| - rho||_F, in primal coordinates."""
        r = np.dot(self.states * x, self.states.conj().T)
        r -= rho
        return math.sqrt(np.vdot(r, r).real)


def hull_system(source) -> HullSystem:
    """Prepare a projector list, or the states of a list of families.

    A system built from families is rank-one and carries the Weyl data of
    :class:`HullSystem`; no dense projector is built. One built from a
    projector list stacks it and keeps its ``pinv_gram``, from one
    eigendecomposition of the Gram.
    """
    if not len(source):
        raise ValueError("need at least one projector")
    if not isinstance(source[0], PureFamily):
        mat = stack_real(source)
        gram = mat.T @ mat
        eig, vecs = np.linalg.eigh(gram)
        keep = eig > PINV_CUTOFF * eig[-1]
        kept = vecs[:, keep]
        return HullSystem(gram=gram, matrix=mat, pinv_gram=(kept / eig[keep]) @ kept.T)
    states = np.hstack([fam.vectors() for fam in source])
    gram = np.abs(states.conj().T @ states)
    gram *= gram
    c = frame_multiplicities(source)
    return HullSystem(
        gram=gram,
        states=states,
        weights=np.divide(1.0, c, out=np.zeros(c.shape), where=c > 0),
    )


def frame_multiplicities(families) -> np.ndarray:
    """c[a, b] = #{families (p, q) : p | a, q | b}, the frame operator's eigenvalue on X^a Z^b."""
    idx = np.arange(families[0].dim)
    return sum(np.outer(idx % fam.p == 0, idx % fam.q == 0).astype(int) for fam in families)


def weyl_coefficients(rho: np.ndarray) -> np.ndarray:
    """rho_hat[a, b] = tr((X^a Z^b)^dag rho), where X^a Z^b |j> = w^(bj) |j + a>.

    Row a is the discrete Fourier transform over j of the cyclic diagonal
    rho[(j + a) mod d, j].
    """
    diagonals, dft = _weyl_frame(rho.shape[0])
    return rho.take(diagonals) @ dft


def from_weyl(coeffs: np.ndarray) -> np.ndarray:
    """The operator (1/d) sum_ab coeffs[a, b] X^a Z^b; inverts :func:`weyl_coefficients`."""
    d = coeffs.shape[0]
    diagonals, dft = _weyl_frame(d)
    out = np.empty(d * d, dtype=np.complex128)
    out[diagonals] = coeffs @ dft.conj() / d  # the DFT matrix is symmetric
    return out.reshape(d, d)


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
    cols = [np.asarray(m, dtype=np.complex128).reshape(-1) for m in matrices]
    block = np.array(cols).T
    return np.vstack([block.real, block.imag])


def reconstruct(projectors, coefficients: np.ndarray) -> np.ndarray:
    return np.tensordot(coefficients, np.asarray(projectors, dtype=np.complex128), axes=1)


def span_project(rho: np.ndarray, projectors) -> tuple[np.ndarray, float]:
    """Frobenius-orthogonal projection of rho onto the real span of the projectors."""
    a = as_matrix(rho)
    if not projectors:
        return np.zeros_like(a), float(np.linalg.norm(a))
    coeffs, residual = _span_coefficients(a, projectors)
    return reconstruct(projectors, coeffs), residual


def _span_coefficients(rho: np.ndarray, projectors) -> tuple[np.ndarray, float]:
    mat = stack_real(projectors)
    vec = stack_real([rho]).reshape(-1)
    coeffs, *_ = np.linalg.lstsq(mat, vec, rcond=None)
    residual = float(np.linalg.norm(mat @ coeffs - vec))
    return coeffs, residual


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
    for m in range(p):
        block = q[m::p, :]
        diffs = block[:, None, :] - block[None, :, :]  # all same-class row pairs
        worst = max(worst, float((diffs.max(axis=2) - diffs.min(axis=2)).max()))
    for s in range(p):
        block = q[:, s::p].T
        diffs = block[:, None, :] - block[None, :, :]
        worst = max(worst, float((diffs.max(axis=2) - diffs.min(axis=2)).max()))
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
    return DecompositionCertificate(
        labels=tuple(labels),
        coefficients=coeffs,
        residual=residual,
        coefficient_sum=float(coeffs.sum()),
    )


def decompose_pq_three(
    rho: np.ndarray,
    pair: BasisPair,
    sets: tuple[str, str, str] = ("B", "C", "D"),
    tol: Tolerances = DEFAULT_TOL,
) -> DecompositionCertificate:
    """Certificate over three of the four families at d = pq, p != q prime.

    The state is projected onto the real span of the chosen families (any
    real solution works); per-class minima of the family coefficients are
    then folded through the resolution identities, which quotients out the
    span's kernel, so the certificate is independent of the particular
    least-squares solution.
    """
    d = pair.dim
    primes = prime_pair(d)
    if primes is None:
        raise BadDimension(f"d={d} is not a product of two distinct primes")
    p, q = primes
    chosen = tuple(sets)
    if len(chosen) != 3 or len(set(chosen)) != 3 or not set(chosen) <= {"A", "B", "C", "D"}:
        raise ValueError("sets must be three distinct labels among A, B, C, D")

    fams = lettered_families(pair, chosen)
    projectors = [proj for name in chosen for proj in fams[name].projectors()]
    labels = [label for name in chosen for label in fams[name].labels()]
    states = np.hstack([fams[name].vectors() for name in chosen])

    rho = require_hermitian(rho, INPUT_GATE_TOL)
    coeffs, span_residual = _span_coefficients(rho, projectors)
    if span_residual > tol.recon:
        raise NotInSpan(f"projection residual {span_residual:.3e} exceeds {tol.recon:.1e}")
    verdict = classicality(kd_table(rho, pair), tol)
    if not verdict.classical:
        raise NotClassical(
            f"table has min real {verdict.min_real:.3e}, max |imag| {verdict.max_imag_abs:.3e}"
        )

    parts = {name: arr for name, arr in zip(chosen, np.split(coeffs, 3))}
    idx = np.arange(d)
    if "C" in parts and "D" in parts:
        gamma = parts["C"].reshape(p, q)
        eta = parts["D"].reshape(q, p)
        if "B" in parts:
            g0 = gamma.min(axis=0)  # per b-class s = j mod q
            e0 = eta.min(axis=0)  # per b-class s' = j mod p
            parts["C"] = (gamma - g0[None, :]).reshape(-1)
            parts["D"] = (eta - e0[None, :]).reshape(-1)
            parts["B"] = parts["B"] + g0[idx % q] + e0[idx % p]
        else:
            g0 = gamma.min(axis=1)  # per a-class m = i mod p
            e0 = eta.min(axis=1)  # per a-class m' = i mod q
            parts["C"] = (gamma - g0[:, None]).reshape(-1)
            parts["D"] = (eta - e0[:, None]).reshape(-1)
            parts["A"] = parts["A"] + g0[idx % p] + e0[idx % q]
    else:
        fam_name = "C" if "C" in parts else "D"
        fp, fq = (p, q) if fam_name == "C" else (q, p)
        lam, mu = parts["A"], parts["B"]
        l0 = np.array([lam[m::fp].min() for m in range(fp)])
        u0 = np.array([mu[s::fq].min() for s in range(fq)])
        parts["A"] = lam - l0[idx % fp]
        parts["B"] = mu - u0[idx % fq]
        parts[fam_name] = parts[fam_name] + (l0[:, None] + u0[None, :]).reshape(-1)

    shifted = np.concatenate([parts[name] for name in chosen])
    return _certificate(rho, states, labels, shifted)


def hull_membership(
    rho: np.ndarray,
    projectors,
    tol: Tolerances = DEFAULT_TOL,
    labels=None,
) -> MembershipVerdict:
    """Distance minimization over convex combinations of the projector list.

    ``projectors`` is a list of projectors, or a :class:`HullSystem` built
    with :func:`hull_system` when many states are tested against the same
    list. The solver works on the Gram and h_k = <P_k, rho>, computed once
    per query: from the state vectors for a system built from families,
    from the stacked matrix for one built from a projector list. Its first
    step is the state's min-norm coefficients, which it keeps when they
    are feasible and stationary: from the Weyl coefficients for a system
    built from families (only for a state within ``tol.recon`` of their
    span), and from ``pinv_gram`` for one built from a projector list. The
    distance is computed in primal coordinates.
    """
    a = require_hermitian(rho, INPUT_GATE_TOL)
    trace = complex(a.trace())
    if abs(trace - 1.0) > INPUT_GATE_TOL:
        raise NotUnitTrace(f"trace is {trace!r}, expected 1")
    system = projectors if isinstance(projectors, HullSystem) else hull_system(projectors)
    if system.states is not None:
        h = system.expectations(a)
        weyl = weyl_coefficients(a)
        candidate = system.min_norm_coefficients(weyl) if system.off_span_distance(weyl) <= tol.recon else None
        coeffs = simplex_least_squares(system.gram, h, candidate=candidate)
        distance = system.residual(coeffs, a)
    else:
        vec = stack_real([a]).reshape(-1)
        h = system.matrix.T @ vec
        coeffs = simplex_least_squares(system.gram, h, candidate=system.pinv_gram @ h)
        distance = float(np.linalg.norm(system.matrix @ coeffs - vec))
    member = distance <= tol.recon
    certificate = None
    if member:
        if labels is None:
            labels = [f"P[{k}]" for k in range(len(coeffs))]
        certificate = DecompositionCertificate(
            labels=tuple(labels),
            coefficients=coeffs,
            residual=distance,
            coefficient_sum=float(coeffs.sum()),
        )
    return MembershipVerdict(member=member, certificate=certificate, distance=distance)
