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
from .linalg import require_hermitian

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
    a = require_hermitian(f, tol)
    d = a.shape[-1]
    idx = np.arange(d)
    k = idx[:, None]  # one row of cells per shift
    dev = a[..., idx, (idx + k) % d]
    dev -= a[..., (idx - k) % d, idx]
    return float(np.abs(dev).max()) <= tol


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
    basis: list[np.ndarray] = []
    for i in range(d):
        e = np.zeros((d, d), dtype=np.complex128)
        e[i, i] = 1.0
        basis.append(e)
    if d == 1:
        return basis
    for cat in entry_partition(d).categories:
        x = np.zeros((d, d), dtype=np.complex128)
        for i, j in cat.cells:
            x[i, j] = 1.0
        if cat.is_real:
            basis.append(x)
            continue
        y = np.zeros((d, d), dtype=np.complex128)
        for i, j in cat.conjugate_cells:
            x[i, j] = 1.0
        for i, j in cat.cells:
            y[i, j] = 1j
        for i, j in cat.conjugate_cells:
            y[i, j] = -1j
        basis.append(x)
        basis.append(y)
    return basis


_SYMBOLS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


def render_partition(part: EntryPartition) -> str:
    """ASCII matrix with '.' on the diagonal and one symbol per category."""
    grid = [["." for _ in range(part.dim)] for _ in range(part.dim)]
    for idx, cat in enumerate(part.categories):
        symbol = _SYMBOLS[idx % len(_SYMBOLS)]
        for i, j in cat.cells + cat.conjugate_cells:
            grid[i][j] = symbol
    return "\n".join(" ".join(row) for row in grid)
