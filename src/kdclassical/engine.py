"""Quasiprobability tables, marginals, classicality verdicts, support counts.

The central object is the d x d table Q_ij(rho) = <b_j|a_i><a_i|rho|b_j>,
which sums to the trace of rho with row sums <a_i|rho|a_i> and column sums
<b_j|rho|b_j>. A state is classical when the table is a genuine probability
distribution: entrywise real and nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dft import BasisPair
from .exceptions import MixedDimensions, NotNormalized
from .linalg import DEFAULT_TOL, INPUT_GATE_TOL, Tolerances, require_hermitian

# Coefficients of enumerated classical states have modulus >= 1/sqrt(d),
# far above this floor for any dimension handled here.
SUPPORT_TOL = 1e-8


@dataclass(frozen=True)
class KDTable:
    """Quasiprobability table of one operator, with its trace for bookkeeping.

    The table of an (m, d, d) stack of operators is one KDTable too: its
    values are the (m, d, d) stack of tables and its source_trace the (m,)
    traces.
    """

    dim: int
    values: np.ndarray
    source_trace: float | np.ndarray

    def row_sums(self) -> np.ndarray:
        return self.values.sum(axis=-1)

    def col_sums(self) -> np.ndarray:
        return self.values.sum(axis=-2)


@dataclass(frozen=True)
class ClassicalityVerdict:
    classical: bool
    min_real: float
    max_imag_abs: float
    witness: tuple[int, int] | None

    def to_json(self) -> dict:
        return {
            "classical": self.classical,
            "min_real": self.min_real,
            "max_imag_abs": self.max_imag_abs,
            "witness": None if self.witness is None else list(self.witness),
        }


@dataclass(frozen=True)
class StackVerdict:
    """Classicality of each table of a stack, as (m,) arrays; the stack is classical when every table is."""

    each: np.ndarray
    min_real: np.ndarray
    max_imag_abs: np.ndarray

    @property
    def classical(self) -> bool:
        return bool(self.each.all())


def kd_table(rho: np.ndarray, pair: BasisPair) -> KDTable:
    """Table with values[i][j] = conj(U_ij) * (rho @ U)[i, j], or the stacked table of an (m, d, d) stack.

    A stack is checked and multiplied at once; each of its tables equals its state's own. The values are read-only."""
    a = require_hermitian(rho, INPUT_GATE_TOL, pair.dim)
    values = pair.transition.conj() * (a @ pair.transition)
    values.setflags(write=False)
    traces = a.trace(axis1=-2, axis2=-1).real
    return KDTable(dim=pair.dim, values=values, source_trace=float(traces) if a.ndim == 2 else traces)


def classicality(table: KDTable, tol: Tolerances = DEFAULT_TOL) -> ClassicalityVerdict | StackVerdict:
    """Verdict on whether the table is entrywise real and nonnegative, or a :class:`StackVerdict` for a stacked table.

    The real part is bounded one-sidedly (>= -tol.classicality), the
    imaginary part two-sidedly. The witness is the lexicographically
    smallest cell attaining the worst violation; a stack's verdict carries
    no witness.
    """
    re = table.values.real
    im_abs = np.abs(table.values.imag)
    min_real, max_imag_abs = re.min(axis=(-2, -1)), im_abs.max(axis=(-2, -1))
    classical = (min_real >= -tol.classicality) & (max_imag_abs <= tol.classicality)
    if re.ndim == 3:
        return StackVerdict(each=classical, min_real=min_real, max_imag_abs=max_imag_abs)
    witness: tuple[int, int] | None = None
    if not classical:
        violation = np.maximum(-re, im_abs)
        flat = int(violation.argmax())  # first occurrence = lexicographically smallest
        witness = (flat // table.dim, flat % table.dim)
    return ClassicalityVerdict(
        classical=bool(classical), min_real=float(min_real), max_imag_abs=float(max_imag_abs), witness=witness
    )


def _require_normalized(psi: np.ndarray) -> np.ndarray:
    v = np.asarray(psi, dtype=np.complex128).reshape(-1)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-10:
        raise NotNormalized(f"state vector has norm {norm!r}")
    return v


def support_counts(psi: np.ndarray, pair: BasisPair, tol: float = SUPPORT_TOL) -> tuple[int, int]:
    """(n_a, n_b): numbers of coefficients with modulus above tol in each basis."""
    v = _require_normalized(psi)
    if v.size != pair.dim:
        raise MixedDimensions(f"vector has dim {v.size}, basis pair has dim {pair.dim}")
    n_a = int(np.count_nonzero(np.abs(v) > tol))
    b_coeffs = pair.transition.conj().T @ v
    n_b = int(np.count_nonzero(np.abs(b_coeffs) > tol))
    return n_a, n_b


def pure_classicality_criterion(psi: np.ndarray, pair: BasisPair) -> bool:
    """Product criterion for pure states: n_a * n_b == d."""
    n_a, n_b = support_counts(psi, pair)
    return n_a * n_b == pair.dim


def is_kd_real(f: np.ndarray, pair: BasisPair, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff every table entry of the self-adjoint operator f is real."""
    table = kd_table(f, pair)
    return float(np.abs(table.values.imag).max()) <= tol.classicality
