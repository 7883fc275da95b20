"""Enumeration of all classical pure states under a DFT pair.

For each ordered factorization d = p*q there is one family of p*q states

    |psi_ms> = (1/sqrt(q)) sum_k w_q^{sk} |a_{kp+m}>,   m in Z_p, s in Z_q,

equal, up to the global phase w_d^{-ms}, to
(1/sqrt(p)) sum_l w_p^{-ml} |b_{lq+s}>. The degenerate factorizations (d,1)
and (1,d) reproduce the two bases themselves. Ordered factorizations are
kept distinct: (p,q) and (q,p) give different families for p != q.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dft import BasisPair, dft_pair
from .exceptions import BadDimension, BadFactorization, IndexOutOfRange, WrongFamilyKind


class Factorization(NamedTuple):
    p: int
    q: int


@dataclass(frozen=True)
class PureFamily:
    """States of one factorization family, labeled A/B/PSI(p,q)/PHI(p,q).

    ``states`` is the read-only d x pq matrix of :func:`family_states`:
    column m*q + s is member (m, s). A projector is built only when asked for.
    """

    label: str
    dim: int
    p: int
    q: int
    states: np.ndarray

    def projector(self, m: int, s: int) -> np.ndarray:
        """|psi_ms><psi_ms|, built on each call: elementwise the same as np.outer(v, v.conj())."""
        v = self.states[:, m * self.q + s]
        return v[:, None] * v.conj()[None, :]

    def projectors(self) -> list[np.ndarray]:
        return [self.projector(*divmod(k, self.q)) for k in range(self.p * self.q)]

    def labels(self) -> list[str]:
        """See :func:`member_labels`."""
        return list(member_labels(self.p, self.q))


@dataclass(frozen=True)
class FamilyIdentityReport:
    """Deviations of the two resolution identities of a PSI/PHI family.

    a_side: for each m, || sum_s psi_ms - sum_k a_{kp+m} ||_max
    b_side: for each s, || sum_m psi_ms - sum_l b_{lq+s} ||_max
    """

    label: str
    a_side_max_dev: float
    b_side_max_dev: float

    @property
    def max_dev(self) -> float:
        return max(self.a_side_max_dev, self.b_side_max_dev)


def factorizations(d: int) -> list[Factorization]:
    """All ordered pairs (p, q) with p*q = d, sorted by p ascending."""
    if d < 1:
        raise ValueError("dimension must be a positive integer")
    return [Factorization(p, d // p) for p in range(1, d + 1) if d % p == 0]


def prime_pair(d: int) -> tuple[int, int] | None:
    """(p, q) with p < q both prime and d = p*q, or None for any other d."""
    nontrivial = [f for f in factorizations(d) if 1 < f.p < d]
    if len(nontrivial) == 2 and all(_is_prime(v) for v in nontrivial[0]):
        return nontrivial[0].p, nontrivial[0].q
    return None


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


def family_label(p: int, q: int) -> str:
    if q == 1:
        return "A"
    if p == 1:
        return "B"
    return f"PSI({p},{q})" if p <= q else f"PHI({p},{q})"


@functools.lru_cache(maxsize=16)
def member_labels(p: int, q: int) -> tuple[str, ...]:
    """``A[m]``, ``B[s]`` or ``<label>[m,s]`` per member of the (p, q) family, in member order."""
    label = family_label(p, q)
    if label == "A":
        return tuple(f"A[{m}]" for m in range(p))
    if label == "B":
        return tuple(f"B[{s}]" for s in range(q))
    return tuple(f"{label}[{m},{s}]" for m in range(p) for s in range(q))


def _check_member(d: int, p: int, q: int, m: int = 0, s: int = 0) -> None:
    """Raise BadFactorization unless d = p*q, then IndexOutOfRange unless (m, s) is in Z_p x Z_q."""
    if p < 1 or q < 1 or p * q != d:
        raise BadFactorization(f"({p},{q}) is not a factorization of {d}")
    if not (0 <= m < p and 0 <= s < q):
        raise IndexOutOfRange(f"(m,s)=({m},{s}) outside Z_{p} x Z_{q}")


def psi_state(pair: BasisPair, p: int, q: int, m: int, s: int) -> np.ndarray:
    """The a-basis expression of the (m, s) member of the (p, q) family."""
    d = pair.dim
    _check_member(d, p, q, m, s)
    v = np.zeros(d, dtype=np.complex128)
    k = np.arange(q)
    v[k * p + m] = np.exp(2j * np.pi * ((s * k) % q) / q) / np.sqrt(q)
    return v


def psi_state_b_form(pair: BasisPair, p: int, q: int, m: int, s: int) -> np.ndarray:
    """Same state built from the b-basis expression, global phase included."""
    d = pair.dim
    _check_member(d, p, q, m, s)
    phase = np.exp(-2j * np.pi * ((m * s) % d) / d)
    v = np.zeros(d, dtype=np.complex128)
    for l in range(p):
        coeff = np.exp(-2j * np.pi * ((m * l) % p) / p)
        v += coeff * pair.b_column(l * q + s)
    return phase * v / np.sqrt(p)


@functools.lru_cache(maxsize=16)
def family_states(d: int, p: int, q: int) -> np.ndarray:
    """All members of the (p, q) family at once: column m*q + s is ``psi_state(pair, p, q, m, s)``.

    The phases are evaluated by the same expression as in :func:`psi_state`,
    elementwise, so the columns are bit-identical to it. Cached and read-only.
    """
    _check_member(d, p, q)
    k = np.arange(q)
    phases = np.exp(2j * np.pi * (np.outer(k, k) % q) / q) / np.sqrt(q)  # [s, k]
    m = np.arange(p)
    states = np.zeros((p, q, q, p), dtype=np.complex128)  # [m, s, k, i mod p]: entry i = k*p + m
    states[m, :, :, m] = phases
    states.setflags(write=False)  # and so are its views
    return states.reshape(p * q, d).T


def build_family(pair: BasisPair, p: int, q: int) -> PureFamily:
    return PureFamily(label=family_label(p, q), dim=pair.dim, p=p, q=q, states=family_states(pair.dim, p, q))


def pure_kd_set(pair: BasisPair) -> list[PureFamily]:
    """One family per factorization, in factorization order; no deduplication."""
    return [build_family(pair, p, q) for p, q in factorizations(pair.dim)]


def lettered_families(pair: BasisPair, letters: str = "ABCD") -> dict[str, PureFamily]:
    """The families named by ``letters``, in that order.

    A is the a-basis (d,1) and B the b-basis (1,d). C = PSI(p,q) and
    D = PHI(q,p), a transposed pair, exist only at d = pq with p < q prime;
    asking for them at any other d raises BadDimension.
    """
    d = pair.dim
    shapes = {"A": (d, 1), "B": (1, d)}
    primes = prime_pair(d)
    if primes is not None:
        p, q = primes
        shapes.update(C=(p, q), D=(q, p))
    families = {}
    for letter in letters:
        if letter not in ("A", "B", "C", "D"):
            raise ValueError(f"no family named {letter!r}; the letters are A, B, C, D")
        if letter not in shapes:
            raise BadDimension(f"no family named {letter!r} at d={d}: C and D need d = pq with p < q prime")
        families[letter] = build_family(pair, *shapes[letter])
    return families


class ProjectorList(list):
    """The projector list of :func:`all_projectors`, which may carry the hull system last built from it."""
    kept_system = None  # set by geometry.hull_membership


def all_projectors(families) -> tuple[ProjectorList, list[str]]:
    """Flatten families into parallel projector/label lists."""
    projectors = ProjectorList()
    labels: list[str] = []
    for fam in families:
        projectors.extend(fam.projectors())
        labels.extend(fam.labels())
    return projectors, labels


def _resolution_gap(states: np.ndarray, basis: np.ndarray) -> float:
    """Largest entry of sum_k |v_ck><v_ck| (states) minus the same sum over the basis, over classes c of two
    (classes, members, d) stacks; the elementwise products of :meth:`PureFamily.projector`, added in member order."""
    lhs, rhs = ((v[..., :, None] * v.conj()[..., None, :]).sum(axis=1) for v in (states, basis))
    return float(np.abs(lhs - rhs).max())


def family_identity_sums(family: PureFamily) -> FamilyIdentityReport:
    """Check the resolution identities tying a PSI/PHI family to the bases."""
    if family.label in ("A", "B"):
        raise WrongFamilyKind(f"family {family.label} is a basis set, not a PSI/PHI family")
    d, p, q = family.dim, family.p, family.q
    psi = family.states.T.reshape(p, q, d)  # [m, s]: member (m, s)
    a = np.eye(d).reshape(q, p, d).swapaxes(0, 1)  # [m, k]: a_{kp+m}
    b = dft_pair(d).transition.T.reshape(p, q, d).swapaxes(0, 1)  # [s, l]: b_{lq+s}
    return FamilyIdentityReport(family.label, _resolution_gap(psi, a), _resolution_gap(psi.swapaxes(0, 1), b))
