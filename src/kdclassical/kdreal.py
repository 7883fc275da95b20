"""Structure of operators with entrywise-real quasiprobability tables.

A self-adjoint F has an all-real table iff its a-basis entries satisfy
F_{i(i+k)} = F_{(i-k)i} for all i, k (indices mod d). That shift condition
chains cells with a common step k into gcd-orbits of length d/gcd(k,d);
Hermiticity pairs the step-k chains with the step-(d-k) chains as complex
conjugates. The resulting cell categories give closed-form dimension counts
for the space of such operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dft import BasisPair
from .exceptions import NotHermitian
from .linalg import _checked, require_hermitian

CONDITION_TOL = 1e-9


@dataclass(frozen=True)
class EntryCategory:
    """One orbit of forced-equal cells and, for complex orbits, its conjugates.

    step is the canonical shift min(k, d-k); residue is the smallest cell row.
    Real categories (2*step == d) keep all their cells in ``cells`` and have
    no conjugate list.
    """

    step: int
    residue: int
    cells: tuple[tuple[int, int], ...]
    conjugate_cells: tuple[tuple[int, int], ...]
    is_real: bool


@dataclass(frozen=True)
class EntryPartition:
    dim: int
    categories: tuple[EntryCategory, ...]
    diagonal: tuple[tuple[int, int], ...]

    @property
    def category_count(self) -> int:
        """Total number of categories, the diagonal included."""
        return len(self.categories) + 1

    def to_json(self) -> dict:
        return {
            "d": self.dim,
            "diagonal": [list(c) for c in self.diagonal],
            "categories": [
                {
                    "step": cat.step,
                    "residue": cat.residue,
                    "is_real": cat.is_real,
                    "cells": [list(c) for c in cat.cells],
                    "conjugate_cells": [list(c) for c in cat.conjugate_cells],
                }
                for cat in self.categories
            ],
        }


def entry_partition(d: int) -> EntryPartition:
    """Partition all off-diagonal cells into shift orbits, plus the diagonal."""
    if d < 2:
        raise ValueError("entry partition needs d >= 2")
    categories: list[EntryCategory] = []
    for k in range(1, d // 2 + 1):
        g = math.gcd(k, d)
        for r in range(g):
            rows = range(r, d, g)
            cells = tuple((i, (i + k) % d) for i in rows)
            if 2 * k == d:
                categories.append(
                    EntryCategory(step=k, residue=r, cells=cells, conjugate_cells=(), is_real=True)
                )
            else:
                conj = tuple((i, (i + d - k) % d) for i in rows)
                categories.append(
                    EntryCategory(step=k, residue=r, cells=cells, conjugate_cells=conj, is_real=False)
                )
    diagonal = tuple((i, i) for i in range(d))
    return EntryPartition(dim=d, categories=tuple(categories), diagonal=diagonal)


def kd_real_condition(f: np.ndarray, tol: float = CONDITION_TOL) -> bool:
    """Entry condition F_{i(i+k)} = F_{(i-k)i} for all i, k in Z_d.

    ``f`` is one operator or a stack ``(m, d, d)`` of them; a stack meets the
    condition when every member does, and raises NotHermitian when any
    member is not Hermitian within ``tol``.
    """
    a = np.asarray(f, dtype=np.complex128)
    return kd_real_parts_condition(a.real, a.imag, tol)


def kd_real_parts_condition(re: np.ndarray, im: np.ndarray, tol: float = CONDITION_TOL) -> bool:
    """:func:`kd_real_condition` of the operators with real parts ``re`` and imaginary parts ``im``.

    Views of a stacked-real block are checked without a complex copy of the
    block. Each deviation is written into one complex buffer and measured
    with numpy's complex absolute value, whose last bits differ from those
    of ``np.hypot``.
    """
    ndim = 3 if re.ndim == 3 else 2
    _checked(re, ndim)
    _checked(im, ndim)
    z = np.empty(re.shape, dtype=np.complex128)
    np.subtract(re, re.swapaxes(-1, -2), out=z.real)
    np.add(im, im.swapaxes(-1, -2), out=z.imag)
    dev = float(np.abs(z).max())
    if dev > tol:
        raise NotHermitian(f"matrix deviates from Hermiticity by {dev:.3e} (tol {tol:.1e})")
    d = re.shape[-1]
    idx = np.arange(d)
    # One row of cells per shift k: cell (i, i+k) and its partner (i-k, i).
    cells, partners = (..., idx, (idx + idx[:, None]) % d), (..., (idx - idx[:, None]) % d, idx)
    np.subtract(re[cells], re[partners], out=z.real)
    np.subtract(im[cells], im[partners], out=z.imag)
    return float(np.abs(z).max()) <= tol


def b_side_condition(g: np.ndarray, pair: BasisPair, tol: float = CONDITION_TOL) -> bool:
    """Entry condition applied to the b-basis matrix U^dag G U."""
    a = require_hermitian(g, tol)
    u = pair.transition
    return kd_real_condition(u.conj().T @ a @ u, tol)


def kd_real_dimension(d: int) -> int:
    """Real dimension of the space of operators with all-real tables.

    Counted from the entry partition: one parameter per real category, two
    per complex category, d for the diagonal. Equals d + sum_k gcd(k, d);
    reduces to 2d-1 for prime d, 3p^2-2p for d=p^2, (2p-1)(2q-1) for d=pq.
    """
    if d < 1:
        raise ValueError("dimension must be a positive integer")
    if d == 1:
        return 1
    part = entry_partition(d)
    return d + sum(1 if cat.is_real else 2 for cat in part.categories)


def kd_real_basis(d: int) -> list[np.ndarray]:
    """Hermitian basis of the all-real-table operator space.

    Diagonal units, then per category the symmetric combination (and, for
    complex categories, the antisymmetric i-weighted one).
    """
    block = _kd_real_block(d)
    basis = np.empty((block.shape[1], d, d), dtype=np.complex128)
    basis.real = block[: d * d].T.reshape(-1, d, d)
    basis.imag = block[d * d :].T.reshape(-1, d, d)
    return list(basis)


def traceless_kd_real_block(d: int) -> np.ndarray:
    """``stack_real([f - tr(f)/d I for f in kd_real_basis(d)])``, built without the dense basis.

    Every bit matches that expression, the signs of zeros included: the
    real part of each -1j entry is -0.0. The diagonal units become e_i - I/d;
    the other members are traceless already.
    """
    block = _kd_real_block(d)
    block[np.arange(d) * (d + 1), :d] -= 1.0 / d
    return block


def _kd_real_block(d: int) -> np.ndarray:
    """The basis of :func:`kd_real_basis` as the columns of its 2d^2 x m stacked-real block, from the entry partition."""
    cats = entry_partition(d).categories if d > 1 else ()
    block = np.zeros((2 * d * d, d + sum(1 if cat.is_real else 2 for cat in cats)))
    block[np.arange(d) * (d + 1), np.arange(d)] = 1.0
    col = d
    for cat in cats:
        cells = [i * d + j for i, j in cat.cells]
        conj = [i * d + j for i, j in cat.conjugate_cells]
        block[cells + conj, col] = 1.0
        if not cat.is_real:
            block[d * d + np.array(cells), col + 1] = 1.0
            block[d * d + np.array(conj), col + 1] = -1.0
            block[conj, col + 1] = -0.0  # the real part of -1j
        col += 1 if cat.is_real else 2
    return block


_SYMBOLS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


def render_partition(part: EntryPartition) -> str:
    """ASCII matrix with '.' on the diagonal and one symbol per category."""
    grid = [["." for _ in range(part.dim)] for _ in range(part.dim)]
    for idx, cat in enumerate(part.categories):
        symbol = _SYMBOLS[idx % len(_SYMBOLS)]
        for i, j in cat.cells + cat.conjugate_cells:
            grid[i][j] = symbol
    return "\n".join(" ".join(row) for row in grid)
