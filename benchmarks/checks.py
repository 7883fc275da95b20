"""Output checks run after every benchmark run.

Probe reports must sum to the sample count and repeat exactly across the
run's calls; at the default seed and length they must equal the pinned
reference below. Every certify query must be a certified member. On every
seed, a subsample of the run's states is decided again, independently of
the library's solver and tables, with ``scipy.optimize.nnls`` over family
projectors built here from their closed form, and the library's verdicts on
those states must agree.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import nnls

from workloads import DEFAULT_SEED, Workload, probe_config

# Probe reports at DEFAULT_SEED and each workload's default length n.
PINS = {
    "perturb-d6": {
        "n": 250,
        "counts": {"classical_and_member": 249, "classical_not_member": 1, "not_classical": 0},
        "worst_margin": 0.022795728761780557,
    },
    "perturb-d30": {
        "n": 4,
        "counts": {"classical_and_member": 4, "classical_not_member": 0, "not_classical": 0},
        "worst_margin": 0.0,
    },
    "ginibre-d6": {
        "n": 250,
        "counts": {"classical_and_member": 0, "classical_not_member": 0, "not_classical": 250},
        "worst_margin": 0.0,
    },
}

# Independent verdicts are only taken where they are clear of the library's
# 1e-9 tolerances; states in between are not compared.
CLASSICAL_CLEAR, NONCLASSICAL_CLEAR = 1e-10, 1e-8
MEMBER_CLEAR, NONMEMBER_CLEAR = 1e-10, 1e-7


def check_probe(w: Workload, seed: int, reports: list) -> list[str]:
    """Problems with the probe reports of one run; empty when they pass."""
    problems = []
    first = reports[0]
    if sum(first.counts.values()) != w.n:
        problems.append(f"counts {first.counts} do not sum to {w.n}")
    for report in reports[1:]:
        if _outcome(report) != _outcome(first):
            problems.append(f"repetition differs: {_outcome(report)} vs {_outcome(first)}")
            break
    pin = PINS.get(w.name)
    if pin is not None and (seed, w.n) == (DEFAULT_SEED, pin["n"]):
        if first.counts != pin["counts"]:
            problems.append(f"counts {first.counts} differ from the pinned {pin['counts']}")
        if not abs(first.worst_margin - pin["worst_margin"]) <= 1e-12:
            problems.append(f"worst_margin {first.worst_margin!r} differs from the pinned {pin['worst_margin']!r}")
    return problems


def _outcome(report) -> tuple:
    return report.counts, report.worst_margin, report.solver_failures


def recheck_probe(kd, w: Workload, seed: int, report) -> list[str]:
    """Decide a seeded subsample of the probe's states again and compare."""
    config = probe_config(kd, w, seed)
    basis = kd.kd_real_basis(w.d) if w.mode == "perturb" else None
    indices = np.sort(np.random.default_rng(seed).choice(w.n, size=min(w.recheck, w.n), replace=False))
    oracle = _Oracle(w.d)
    pair = kd.dft_pair(w.d)
    projectors, _ = kd.all_projectors(kd.pure_kd_set(pair))
    problems = []
    tally = dict.fromkeys(report.counts, 0)
    worst = 0.0
    for index in indices:
        if w.mode == "perturb":
            rho = kd.sample_kd_boundary(config, basis, index=int(index))
        else:
            rho = _ginibre_state(seed, int(index), w.d)
        classical = kd.classicality(kd.kd_table(rho, pair)).classical
        verdict = kd.hull_membership(rho, projectors)
        problems += oracle.disagreements(f"sample {index}", rho, classical, verdict.member)
        if not classical:
            tally["not_classical"] += 1
        elif verdict.member:
            tally["classical_and_member"] += 1
        else:
            tally["classical_not_member"] += 1
            worst = max(worst, verdict.distance)
    for category, seen in tally.items():
        if seen > report.counts[category]:
            problems.append(f"{seen} subsampled states are {category}, the probe counted {report.counts[category]}")
    if worst > report.worst_margin + 1e-12:
        problems.append(f"a subsampled state lies {worst!r} outside the hull, beyond worst_margin {report.worst_margin!r}")
    return problems


def recheck_certify(w: Workload, seed: int, states: list) -> list[str]:
    """Every subsampled certify state must be independently classical and a hull member."""
    indices = np.random.default_rng(seed).choice(len(states), size=min(w.recheck, len(states)), replace=False)
    oracle = _Oracle(w.d)
    problems = []
    for index in np.sort(indices):
        problems += oracle.disagreements(f"state {index}", states[index], True, True)
    return problems


def _ginibre_state(seed: int, index: int, d: int) -> np.ndarray:
    """The probe's Ginibre draw for one sample index, from its documented seeding."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / rho.trace().real


class _Oracle:
    """Classicality and hull distance computed without kdclassical."""

    def __init__(self, d: int):
        idx = np.arange(d)
        self.u = np.exp(2j * np.pi * (np.outer(idx, idx) % d) / d) / np.sqrt(d)
        vectors = []
        for p in (p for p in range(1, d + 1) if d % p == 0):
            q, k = d // p, np.arange(d // p)
            for m in range(p):
                for s in range(q):
                    v = np.zeros(d, dtype=complex)
                    v[k * p + m] = np.exp(2j * np.pi * s * k / q) / np.sqrt(q)
                    vectors.append(v)
        v = np.array(vectors).T
        flat = np.einsum("ik,jk->ijk", v, v.conj()).reshape(d * d, -1)
        self.a = np.vstack([flat.real, flat.imag])

    def disagreements(self, what: str, rho: np.ndarray, classical: bool, member: bool) -> list[str]:
        table = self.u.conj() * (rho @ self.u)
        worst = max(-float(table.real.min()), float(np.abs(table.imag).max()))
        problems = []
        if (classical and worst > NONCLASSICAL_CLEAR) or (not classical and worst < CLASSICAL_CLEAR):
            problems.append(f"{what}: library says classical={classical}, table violation is {worst:.3e}")
        b = np.concatenate([rho.real.reshape(-1), rho.imag.reshape(-1)])
        weight = 1e3  # enforces sum(x) = 1 through an extra least-squares row
        x, _ = nnls(np.vstack([self.a, weight * np.ones(self.a.shape[1])]), np.append(b, weight))
        distance = float(np.linalg.norm(self.a @ x - b))
        if (member and distance > NONMEMBER_CLEAR) or (not member and distance < MEMBER_CLEAR):
            problems.append(f"{what}: library says member={member}, nnls distance is {distance:.3e}")
        return problems
