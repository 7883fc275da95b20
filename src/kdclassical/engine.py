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
    """Quasiprobability table of one operator, with its trace for bookkeeping."""

    dim: int
    values: np.ndarray
    source_trace: float

    def row_sums(self) -> np.ndarray:
        return self.values.sum(axis=1)

    def col_sums(self) -> np.ndarray:
        return self.values.sum(axis=0)


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


def kd_table(rho: np.ndarray, pair: BasisPair) -> KDTable:
    """Table with values[i][j] = conj(U_ij) * (rho @ U)[i, j]."""
    a = require_hermitian(rho, INPUT_GATE_TOL, pair.dim)
    values = pair.transition.conj() * (a @ pair.transition)
    values.setflags(write=False)
    return KDTable(dim=pair.dim, values=values, source_trace=float(a.trace().real))


def classicality(table: KDTable, tol: Tolerances = DEFAULT_TOL) -> ClassicalityVerdict:
    """Verdict on whether the table is entrywise real and nonnegative.

    The real part is bounded one-sidedly (>= -tol.classicality), the
    imaginary part two-sidedly. The witness is the lexicographically
    smallest cell attaining the worst violation.
    """
    re = table.values.real
    im = table.values.imag
    min_real = float(re.min())
    max_imag_abs = float(np.abs(im).max())
    classical = min_real >= -tol.classicality and max_imag_abs <= tol.classicality
    witness: tuple[int, int] | None = None
    if not classical:
        violation = np.maximum(-re, np.abs(im))
        flat = int(np.argmax(violation))  # first occurrence = lexicographically smallest
        witness = (flat // table.dim, flat % table.dim)
    return ClassicalityVerdict(
        classical=classical, min_real=min_real, max_imag_abs=max_imag_abs, witness=witness
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
