"""Convex geometry of the classical-state set: spans, decompositions, hulls.

Every projector a hull query meets is rank one, P_k = |psi_k><psi_k|, so a
hull system keeps the state vectors psi_k and no dense projector. Spans of
general operator lists are computed via the Frobenius-isometric stacking of
real and imaginary parts, so least-squares residuals in the stacked
coordinates equal Frobenius distances between matrices.
"""

from __future__ import annotations

import functools
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
from .families import ProjectorList, PureFamily, family_states, lettered_families, member_labels, prime_pair
from .linalg import DEFAULT_TOL, INPUT_GATE_TOL, Tolerances, _checked, as_matrix, require_hermitian
from .solver import simplex_least_squares

# Gram eigenvalues at or below this fraction of the largest are taken as zero
# in ``HullSystem.pinv_gram`` and ``kernel``. For the family lists the nonzero
# spectrum lies in [1, tau(d)] and the zero eigenvalues come out at 5e-15 or
# less, so the cutoff sits in a wide gap. A dropped eigenvalue that was not
# zero only makes the min-norm or kernel step fail its stationarity check.
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

    Every system is rank-one: it keeps the state vectors ``states`` (d x n,
    column k is psi_k, P_k = |psi_k><psi_k|), so that ``gram``, the n x n
    matrix of Frobenius inner products <P_j, P_k> shared by every query, is
    |<psi_j|psi_k>|^2, and <P_k, rho> = <psi_k|rho|psi_k>.

    A system built from families also keeps ``weights``, the d x d table of
    1/c(a, b) with 0 where c = 0. Each family is an orthonormal basis whose
    diagonal operators are spanned by the Weyl operators X^a Z^b with p | a
    and q | b, so the frame operator S = sum_k |P_k><P_k| is diagonal in the
    Weyl basis with eigenvalue c(a, b) = #{families (p, q) : p | a, q | b}.
    That gives the distance of a state from the span and its min-norm
    coefficients in closed form, with no Gram. One built from a projector
    list has no Weyl data and maps h to the min-norm coefficients by
    ``pinv_gram``, the pseudo-inverse of ``gram`` (:data:`PINV_CUTOFF`).

    ``gram``, ``pinv_gram`` and ``kernel``, the eigenvectors the cutoff
    drops (an orthonormal basis of ker ``gram``, for the solver's kernel
    step), are computed on first use and kept; the last two share one
    ``eigh`` of the Gram. They and the states are read-only: a stray write
    into what later queries share raises ValueError.
    """

    states: np.ndarray
    weights: np.ndarray | None = None

    @functools.cached_property
    def gram(self) -> np.ndarray:
        gram = np.abs(self.states.conj().T @ self.states)
        gram *= gram  # in place: a second n x n array would raise the peak
        return _read_only(gram)

    @functools.cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The Gram's eigenvalues above the cutoff, their eigenvectors, and the eigenvectors below it."""
        eig, vecs = np.linalg.eigh(self.gram)
        keep = eig > PINV_CUTOFF * eig[-1]
        return eig[keep], vecs[:, keep], _read_only(vecs[:, ~keep])

    @functools.cached_property
    def pinv_gram(self) -> np.ndarray:
        eig, kept, _ = self._spectrum
        return _read_only((kept / eig) @ kept.T)

    @functools.cached_property
    def kernel(self) -> np.ndarray:
        return self._spectrum[2]

    @property
    def dim(self) -> int:
        """d of the d x d operators the system describes."""
        return self.states.shape[0]

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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _squared_norms(v: np.ndarray):
    """|v|^2 along the last axis, one product per vector, which gives the bits of np.vdot(v, v).real."""
    return np.matmul(v.conj()[..., None, :], v[..., :, None])[..., 0, 0].real


def hull_system(source) -> HullSystem:
    """Prepare a projector list, or the states of a list of families.

    No dense projector is kept. A list of finite d x d projectors gives
    psi_k = P_k[:, j] / sqrt(P_k[j, j]) at the largest diagonal entry j, and
    ValueError for a P_k that differs from psi_k psi_k^H by more than
    :data:`~kdclassical.linalg.INPUT_GATE_TOL` in any real or imaginary part.
    """
    if len(source) and isinstance(source[0], PureFamily):
        c = frame_multiplicities(source)
        weights = np.divide(1.0, c, out=np.zeros(c.shape), where=c > 0)  # 1/c(a, b), 0 where c = 0
        return HullSystem(states=_read_only(np.hstack([fam.states for fam in source])), weights=weights)
    return HullSystem(states=_read_only(_projector_states(source)))


def _projector_states(projectors) -> np.ndarray:
    """The d x n state vectors psi_k of a list of rank-one projectors P_k = psi_k psi_k^H, else ValueError."""
    projs = _checked(np.asarray(projectors, dtype=np.complex128), 3)  # ragged: ValueError from numpy
    k = np.arange(len(projs))
    j = projs.diagonal(axis1=1, axis2=2).real.argmax(axis=1)
    pivots = projs[k, j, j].real
    if not (pivots > 0.0).all():  # refused before the division
        raise ValueError("a projector has no positive diagonal entry")
    psi = projs[k, :, j] / np.sqrt(pivots)[:, None]
    dev = float(np.abs(np.subtract(psi[:, :, None] * psi.conj()[:, None, :], projs).view(np.float64)).max())
    if dev > INPUT_GATE_TOL:
        raise ValueError(f"a projector deviates from rank one psi psi^H by {dev:.3e} (tol {INPUT_GATE_TOL:.1e})")
    return np.ascontiguousarray(psi.T)


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
    blocks = np.stack([q, q.T]).reshape(2, p, p, d)  # [rows or columns, k, m]: line k*p + m, residue class m
    diffs = blocks[:, :, None] - blocks[:, None, :]  # all same-class line pairs
    return float((diffs.max(axis=4) - diffs.min(axis=4)).max())


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
    row_sums, col_sums = q.sum(axis=1), q.sum(axis=0)
    row_rep = np.arange(p) + p * row_sums.reshape(p, p).argmin(axis=0)  # column m of the reshape is class m
    col_rep = np.arange(p) + p * col_sums.reshape(p, p).argmin(axis=0)
    lam = row_sums - row_sums[row_rep[np.arange(d) % p]]
    mu = col_sums - col_sums[col_rep[np.arange(d) % p]]
    gamma = d * q[row_rep[:, None], col_rep]

    states = np.hstack([np.eye(d), pair.transition, family_states(d, p, p)])
    labels = member_labels(d, 1) + member_labels(1, d) + member_labels(p, p)
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
    system = hull_system(fams)  # no hull query is made, so no Gram is built
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
    rho: np.ndarray, projectors, tol: Tolerances = DEFAULT_TOL, labels=None
) -> MembershipVerdict | list[MembershipVerdict | None]:
    """Distance minimization over convex combinations of the projector list.

    ``projectors`` is a list of projectors or of families, or a
    :class:`HullSystem` built with :func:`hull_system` from either when many
    states are tested against it; a state of another dimension raises
    MixedDimensions before any arithmetic on it. A list is checked on every
    call; the one :func:`~kdclassical.families.all_projectors` returns keeps
    the system its last query built while the list lives (about 21 KB at
    d = 9, 1.5 MB at d = 30), reused while the states are the same bit for
    bit; any other list builds one per call. ``labels``: one per projector.

    Every system takes one path. The solver works on the Gram and h_k =
    <psi_k|rho|psi_k>, from the system's state vectors. Its first step is the
    state's min-norm coefficients, kept when they are feasible and
    stationary: from the Weyl coefficients for a system built from families
    (only for a state within ``tol.recon`` of their span), else ``pinv_gram``
    applied to h. A finite first step that fails is moved within the
    system's ``kernel`` before the active set runs. The distance is computed
    in primal coordinates.

    ``rho`` may also be a stack of m states, an (m, d, d) array or a list of
    d x d states; a single state is decided as a stack of one, on the same
    path. A stack is checked as a whole, and a bad state in it raises what
    it raises alone. It gives a list of m verdicts, each the one its state
    gets alone, None where the solve did not converge; a single state gives
    its verdict or raises SolverDidNotConverge (the failure convention of
    :mod:`~kdclassical.solver`).
    """
    system = projectors if isinstance(projectors, HullSystem) else _list_system(projectors)
    n = system.states.shape[1]
    labels = _index_labels(n) if labels is None else tuple(labels)
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} projectors")
    if isinstance(rho, (list, tuple)) and rho and np.ndim(rho[0]) == 2:  # a list of states, which may not stack
        for state in rho:
            if np.shape(state) != (system.dim, system.dim):
                require_hermitian(state, INPUT_GATE_TOL, system.dim)
    a = require_hermitian(rho, INPUT_GATE_TOL, system.dim)
    trace = a.trace(axis1=-2, axis2=-1)
    off = np.abs(trace - 1.0) > INPUT_GATE_TOL
    if off.any():
        raise NotUnitTrace(f"trace is {complex(trace[off][0])!r}, expected 1")
    stack = a.reshape(-1, system.dim, system.dim)  # a single state is a stack of one
    h = system.expectations(stack)
    if system.weights is None:
        candidate = np.matmul(h[:, None, :], system.pinv_gram)[:, 0]  # one product per row: a stacked row gets its bits alone
    else:
        weyl = weyl_coefficients(stack)
        near = system.off_span_distance(weyl) <= tol.recon  # NaN: no candidate for a state off the span
        candidate = np.where(near[:, None], system.min_norm_coefficients(weyl), np.nan) if near.any() else None
    # A single state's h goes in 1-D, so that a solve that does not converge raises.
    coeffs = simplex_least_squares(system.gram, h.reshape(*a.shape[:-2], -1), candidate=candidate, kernel=lambda: system.kernel).reshape(h.shape)
    distance = system.residual(coeffs, stack)
    failed = np.isnan(coeffs).any(axis=1).tolist()
    verdicts = []
    for x, dist, bad in zip(coeffs, distance.tolist(), failed):
        member = dist <= tol.recon  # NaN: not a member
        certificate = DecompositionCertificate(labels, x, dist, float(x.sum())) if member else None
        verdicts.append(None if bad else MembershipVerdict(member=member, certificate=certificate, distance=dist))
    return verdicts if a.ndim == 3 else verdicts[0]


def _list_system(projectors) -> HullSystem:
    """``hull_system(projectors)``, or the system kept on a ProjectorList if its states equal the new one's as integers (-0.0 != 0.0)."""
    system = hull_system(projectors)  # every check, on every call
    if not isinstance(projectors, ProjectorList):
        return system
    kept = projectors.kept_system
    if kept is not None and np.array_equal(kept.states.view(np.int64), system.states.view(np.int64)):
        return kept
    projectors.kept_system = system
    return system


@functools.lru_cache(maxsize=4)
def _index_labels(n: int) -> tuple[str, ...]:
    return tuple(f"P[{k}]" for k in range(n))
