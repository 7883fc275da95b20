"""Convex geometry of the classical-state set: spans, decompositions, hulls.

Projector lists are treated as real vectors via the Frobenius-isometric
stacking of real and imaginary parts, so least-squares residuals in the
stacked coordinates equal Frobenius distances between matrices.
"""

from __future__ import annotations

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
from .families import build_family, factorizations
from .linalg import DEFAULT_TOL, Tolerances, as_matrix, require_hermitian
from .solver import simplex_least_squares

# Input gates are fixed; the Tolerances fields govern verdict acceptance.
INPUT_GATE_TOL = 1e-9


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
    """A projector list stacked once, for many hull-membership queries.

    ``matrix`` has one stacked-real column per projector and ``gram`` is
    ``matrix.T @ matrix``; every query against the list shares both.
    """

    matrix: np.ndarray
    gram: np.ndarray


def hull_system(projectors) -> HullSystem:
    mat = stack_real(projectors)
    return HullSystem(matrix=mat, gram=mat.T @ mat)


def stack_real(matrices) -> np.ndarray:
    """Columns of [Re(flat); Im(flat)] per matrix; column norms are Frobenius norms."""
    cols = [np.asarray(m, dtype=np.complex128).reshape(-1) for m in matrices]
    block = np.array(cols).T
    return np.vstack([block.real, block.imag])


def reconstruct(projectors, coefficients: np.ndarray) -> np.ndarray:
    out = np.zeros_like(np.asarray(projectors[0], dtype=np.complex128))
    for c, p in zip(coefficients, projectors):
        out += c * p
    return out


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

    family = build_family(pair, p, p)
    projectors = (
        [_a_projector(d, i) for i in range(d)]
        + [np.outer(pair.b_column(j), pair.b_column(j).conj()) for j in range(d)]
        + family.projectors()
    )
    labels = (
        [f"A[{i}]" for i in range(d)]
        + [f"B[{j}]" for j in range(d)]
        + [f"{family.label}[{m},{s}]" for m in range(p) for s in range(p)]
    )
    coeffs = np.concatenate([lam, mu, gamma.reshape(-1)])
    return _certificate(rho, projectors, labels, coeffs, tol)


def _a_projector(d: int, i: int) -> np.ndarray:
    proj = np.zeros((d, d), dtype=np.complex128)
    proj[i, i] = 1.0
    return proj


def _certificate(rho, projectors, labels, coeffs, tol: Tolerances) -> DecompositionCertificate:
    coeffs = np.where(np.abs(coeffs) < max(1e-14, len(coeffs) * 1e-16), 0.0, coeffs)
    coeffs = np.maximum(coeffs, 0.0)
    residual = float(np.linalg.norm(reconstruct(projectors, coeffs) - rho))
    return DecompositionCertificate(
        labels=tuple(labels),
        coefficients=coeffs,
        residual=residual,
        coefficient_sum=float(coeffs.sum()),
    )


def _prime_pair(d: int) -> tuple[int, int]:
    nontrivial = [f for f in factorizations(d) if 1 < f.p < d]
    if len(nontrivial) != 2:
        raise BadDimension(f"d={d} is not a product of two distinct primes")
    p, q = nontrivial[0]
    return p, q


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
    p, q = _prime_pair(d)
    chosen = tuple(sets)
    if len(chosen) != 3 or len(set(chosen)) != 3 or not set(chosen) <= {"A", "B", "C", "D"}:
        raise ValueError("sets must be three distinct labels among A, B, C, D")

    fams = {
        "A": build_family(pair, d, 1),
        "B": build_family(pair, 1, d),
        "C": build_family(pair, p, q),
        "D": build_family(pair, q, p),
    }
    projectors: list[np.ndarray] = []
    labels: list[str] = []
    for name in chosen:
        fam = fams[name]
        projectors.extend(fam.projectors())
        if name == "A":
            labels.extend(f"A[{i}]" for i in range(d))
        elif name == "B":
            labels.extend(f"B[{j}]" for j in range(d))
        else:
            labels.extend(f"{fam.label}[{m},{s}]" for m in range(fam.p) for s in range(fam.q))

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
    return _certificate(rho, projectors, labels, shifted, tol)


def hull_membership(
    rho: np.ndarray,
    projectors,
    tol: Tolerances = DEFAULT_TOL,
    labels=None,
) -> MembershipVerdict:
    """Distance minimization over convex combinations of the projector list.

    ``projectors`` is a list of projectors, or a :class:`HullSystem` built
    from one with :func:`hull_system` when many states are tested against
    the same list.
    """
    a = require_hermitian(rho, INPUT_GATE_TOL)
    trace = complex(a.trace())
    if abs(trace - 1.0) > INPUT_GATE_TOL:
        raise NotUnitTrace(f"trace is {trace!r}, expected 1")
    system = projectors if isinstance(projectors, HullSystem) else hull_system(projectors)
    vec = stack_real([a]).reshape(-1)
    coeffs, distance = simplex_least_squares(system.matrix, vec, gram=system.gram)
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
