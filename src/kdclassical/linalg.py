"""Dense complex linear algebra: Hermiticity/PSD checks, span ranks, JSON I/O.

Matrices are plain ``numpy.ndarray`` values of dtype complex128, shape
``(d, d)``. The JSON interchange schema used by every module and the CLI is

    {"d": <int>, "entries": [[re, im], ...]}

with exactly ``d*d`` row-major pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .exceptions import MixedDimensions, NotHermitian


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the toolkit.

    eig_psd      -- eigenvalue floor for positive semidefiniteness checks
    classicality -- smallest allowed quasiprobability value / largest |Im|
    rank_rel     -- relative singular-value cutoff for span ranks
    recon        -- Frobenius bound for accepted reconstructions
    """

    eig_psd: float = 1e-10
    classicality: float = 1e-9
    rank_rel: float = 1e-8
    recon: float = 1e-9

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (bool, np.bool_)) or not 0.0 < value < float("inf"):  # also False for NaN
                raise ValueError(f"tolerance {f.name} must be a finite, strictly positive number, got {value!r}")


DEFAULT_TOL = Tolerances()


def as_matrix(m: np.ndarray) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    return _checked(np.asarray(m, dtype=np.complex128), 2)


def _checked(a: np.ndarray, ndim: int) -> np.ndarray:
    """``a`` if it is one square matrix (ndim 2) or a nonempty stack of them (ndim 3), all finite."""
    if a.ndim != ndim or a.shape[-1] != a.shape[-2] or min(a.shape) < 1:
        kind = "a square matrix" if ndim == 2 else "a stack of square matrices"
        raise ValueError(f"expected {kind}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def is_hermitian(m: np.ndarray, tol: float = 1e-12) -> bool:
    """True iff ``max_ij |M_ij - conj(M_ji)| <= tol``."""
    a = as_matrix(m)
    return float(np.abs(a - a.conj().T).max()) <= tol


INPUT_GATE_TOL = 1e-9  # fixed gate on a state's Hermiticity and trace; Tolerances fields govern verdicts


def require_hermitian(m: np.ndarray, tol: float, dim: int | None = None) -> np.ndarray:
    """One square matrix, or a stack ``(k, d, d)`` of them, checked Hermitian within ``tol``.

    With ``dim`` given, a d other than ``dim`` raises MixedDimensions before any arithmetic.
    """
    a = np.asarray(m, dtype=np.complex128)
    a = _checked(a, 3 if a.ndim == 3 else 2)
    if dim is not None and a.shape[-1] != dim:
        raise MixedDimensions(f"operator has dim {a.shape[-1]}, expected {dim}")
    adjoint = np.swapaxes(a, -1, -2).conj()
    adjoint -= a
    dev = float(np.abs(adjoint).max())
    if dev > tol:
        raise NotHermitian(f"matrix deviates from Hermiticity by {dev:.3e} (tol {tol:.1e})")
    return a


def is_density_matrix(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Hermitian within tol.recon, unit trace within tol.recon, eigenvalues >= -tol.eig_psd."""
    a = as_matrix(m)
    if not is_hermitian(a, tol.recon):
        return False
    if abs(a.trace().real - 1.0) > tol.recon or abs(a.trace().imag) > tol.recon:
        return False
    return float(np.linalg.eigvalsh(a).min()) >= -tol.eig_psd


def flatten_hermitian(m: np.ndarray) -> np.ndarray:
    """Flatten a Hermitian d x d matrix to a real vector of length d^2.

    Fixed layout: diagonal first, then the strict upper triangle row-major
    with the real part before the imaginary part of each entry.
    """
    a = as_matrix(m)
    iu = np.triu_indices(a.shape[0], k=1)
    upper = a[iu]
    off = np.empty(2 * upper.size)
    off[0::2] = upper.real
    off[1::2] = upper.imag
    return np.concatenate([a.diagonal().real, off])


def real_span_rank(matrices, tol: Tolerances = DEFAULT_TOL) -> int:
    """Rank of the real vector space spanned by a set of Hermitian matrices.

    Each matrix is flattened by :func:`flatten_hermitian`; the rank is the
    number of singular values above ``tol.rank_rel`` times the largest one.
    """
    mats = [as_matrix(m) for m in matrices]
    if not mats:
        return 0
    d = mats[0].shape[0]
    for m in mats:
        if m.shape[0] != d:
            raise MixedDimensions(f"matrices mix dimensions {d} and {m.shape[0]}")
        require_hermitian(m, tol.recon)
    stack = np.array([flatten_hermitian(m) for m in mats])
    sigma = np.linalg.svd(stack, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > tol.rank_rel * sigma[0]))


def matrix_to_json(m: np.ndarray) -> dict:
    """Encode a matrix in the interchange schema."""
    a = as_matrix(m)
    flat = a.reshape(-1)
    return {"d": int(a.shape[0]), "entries": [[float(z.real), float(z.imag)] for z in flat]}


def matrix_from_json(doc: dict) -> np.ndarray:
    """Decode the interchange schema; raises ValueError on malformed input."""
    if not isinstance(doc, dict) or "d" not in doc or "entries" not in doc:
        raise ValueError("matrix document must have keys 'd' and 'entries'")
    d = doc["d"]
    if isinstance(d, float) and d.is_integer():
        d = int(d)
    if isinstance(d, bool) or not isinstance(d, int):
        raise ValueError(f"matrix dimension must be an integer, got {d!r}")
    if d < 1:
        raise ValueError("matrix dimension must be >= 1")
    entries = doc["entries"]
    if not isinstance(entries, list) or len(entries) != d * d:
        got = len(entries) if isinstance(entries, list) else f"a {type(entries).__name__}"
        raise ValueError(f"expected a list of {d * d} entries, got {got}")
    if not all(isinstance(pair, list) and len(pair) == 2 for pair in entries):
        raise ValueError("each entry must be a [re, im] pair")
    if any(isinstance(x, bool) for pair in entries for x in pair):
        raise ValueError("entry components must be numbers, got a boolean")
    try:
        flat = np.array([complex(float(re), float(im)) for re, im in entries])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"entry components must be numbers ({exc})") from None
    return as_matrix(flat.reshape(d, d))
