"""Acceptance checks: pinned dimension counts, equivalences, round-trips.

Each check returns a :class:`CheckResult`; ``run_dimension_suite`` collects
the checks that apply to one dimension. The same functions back the CLI
``verify`` subcommand and the acceptance test module, so every tolerance is
pinned here in one place.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .dft import dft_pair
from .engine import is_kd_real, kd_table, support_counts
from .families import all_projectors, factorizations, family_identity_sums, lettered_families, prime_pair, pure_kd_set
from .exceptions import ConditionsFailed, NotClassical
from .geometry import decompose_p2, decompose_pq_three, hull_membership, hull_system
from .harness import SampleConfig, perturbation_basis, probe_conjecture, sample_kd_boundary
from .kdreal import b_side_condition, entry_partition, kd_real_basis, kd_real_condition, kd_real_dimension
from .linalg import DEFAULT_TOL, real_span_rank

EQUIVALENCE_SEED = 96301
MARGINAL_SEED = 55117
ROUNDTRIP_SEED = 77003
PQ3_SEED = 41389
PROBE_SEED = 12721

# Closed-form span-rank pins per dimension.
P2_RANKS = {4: 8, 9: 21, 25: 65}
PQ_RANKS = {6: (15, 13), 10: (27, 23), 15: (45, 37)}
CATEGORY_COUNTS = {5: 3, 6: 7, 9: 7}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", bool(self.passed))


def check_rank_pins(d: int) -> CheckResult | None:
    """Span ranks of the family unions against the closed-form counts."""
    pair = dft_pair(d)
    if d in P2_RANKS:
        rank = real_span_rank(all_projectors(pure_kd_set(pair))[0])
        want = P2_RANKS[d]
        return CheckResult(
            name=f"span rank A+B+C (d={d})",
            passed=rank == want,
            detail=f"rank {rank}, expected {want}",
        )
    if d in PQ_RANKS:
        fams = lettered_families(pair)
        want_all, want_three = PQ_RANKS[d]
        rank_all = real_span_rank([p for f in fams.values() for p in f.projectors()])
        ok = rank_all == want_all
        detail = [f"union rank {rank_all}/{want_all}"]
        for combo in combinations(sorted(fams), 3):
            rank3 = real_span_rank([p for name in combo for p in fams[name].projectors()])
            ok = ok and rank3 == want_three
            detail.append(f"{''.join(combo)} {rank3}/{want_three}")
        return CheckResult(
            name=f"span ranks of family unions (d={d})", passed=ok, detail="; ".join(detail)
        )
    return None


def check_categories(d: int) -> CheckResult | None:
    """Category counts, sizes, and cell memberships of the entry partition."""
    if d not in CATEGORY_COUNTS:
        return None
    part = entry_partition(d)
    ok = part.category_count == CATEGORY_COUNTS[d]
    detail = f"{part.category_count} categories, expected {CATEGORY_COUNTS[d]}"

    def entries(cat):
        return len(cat.cells) + len(cat.conjugate_cells)

    sizes = sorted(entries(c) for c in part.categories)
    if d == 5:
        # one category per shift pair {1,4} and {2,3}, ten entries each
        shift1 = next(c for c in part.categories if (0, 1) in c.cells)
        shift2 = next(c for c in part.categories if (0, 2) in c.cells)
        good = (
            sizes == [10, 10]
            and set(shift1.cells) == {(i, (i + 1) % 5) for i in range(5)}
            and set(shift1.conjugate_cells) == {(i, (i + 4) % 5) for i in range(5)}
            and set(shift2.cells) == {(i, (i + 2) % 5) for i in range(5)}
            and set(shift2.conjugate_cells) == {(i, (i + 3) % 5) for i in range(5)}
        )
        ok = ok and good
        detail += "; shift-pair memberships " + ("ok" if good else "WRONG")
    if d == 9:
        cat = next(c for c in part.categories if (0, 3) in c.cells)
        good = (
            sizes == [6, 6, 6, 18, 18, 18]
            and set(cat.cells) == {(0, 3), (3, 6), (6, 0)}
            and set(cat.conjugate_cells) == {(0, 6), (3, 0), (6, 3)}
            and not cat.is_real
        )
        ok = ok and good
        detail += "; (0,3)-(3,6)-(6,0) grouping " + ("ok" if good else "WRONG")
    if d == 6:
        cat = next(c for c in part.categories if (0, 3) in c.cells)
        good = (
            sizes == [2, 2, 2, 6, 6, 12]
            and set(cat.cells) == {(0, 3), (3, 0)}
            and cat.is_real
        )
        ok = ok and good
        detail += "; real {(0,3),(3,0)} category " + ("ok" if good else "WRONG")
    return CheckResult(name=f"entry categories (d={d})", passed=ok, detail=detail)


def hermitian_sample_battery(d: int, n: int, seed: int = EQUIVALENCE_SEED):
    """Yield n seeded Hermitian matrices one at a time: generic, exactly real-table, defective, b-built."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(d,)))
    basis = np.array(kd_real_basis(d))
    u = dft_pair(d).transition
    for index in range(n):
        kind = index % 4
        if kind == 0:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            yield (g + g.conj().T) / 2
            continue
        f = np.tensordot(rng.standard_normal(len(basis)), basis, 1)
        if kind == 2:
            # Bump one chain cell with step k < d/2: chains there have length
            # >= 3, so the single bump always breaks the equality condition.
            k = int(rng.integers(1, (d - 1) // 2 + 1))
            i = int(rng.integers(0, d))
            f[i, (i + k) % d] += 1e-3
            f[(i + k) % d, i] += 1e-3
        elif kind == 3:
            f = u @ f @ u.conj().T
        yield f


def check_kd_real_equivalence(d: int, n: int = 200) -> CheckResult:
    """Three-way agreement of the real-table checks on a seeded battery."""
    pair = dft_pair(d)
    disagreements = 0
    wrong = 0
    for index, f in enumerate(hermitian_sample_battery(d, n)):
        via_table = is_kd_real(f, pair)
        via_entries = kd_real_condition(f)
        via_b = b_side_condition(f, pair)
        if not via_table == via_entries == via_b:
            disagreements += 1
        expected = index % 4 in (1, 3)
        if via_entries != expected:
            wrong += 1
    return CheckResult(
        name=f"real-table check equivalence (d={d}, n={n})",
        passed=disagreements == 0 and wrong == 0,
        detail=f"{disagreements} disagreements, {wrong} unexpected verdicts",
    )


def hermitian_parameter_basis(d: int) -> np.ndarray:
    """Standard real basis of the Hermitian d x d matrices as one (d^2, d, d) array: the diagonal
    units, then per i < j in row-major order the symmetric unit and the i-weighted antisymmetric one."""
    diag = np.arange(d)
    i, j = np.triu_indices(d, 1)
    sym = d + 2 * np.arange(len(i))
    basis = np.zeros((d * d, d, d), dtype=np.complex128)
    basis[diag, diag, diag] = 1.0
    basis[sym, i, j] = basis[sym, j, i] = 1.0
    basis[sym + 1, i, j], basis[sym + 1, j, i] = 1j, -1j
    return basis


def imag_constraint_nullity(d: int) -> int:
    """dim of the Hermitian solutions of Im Q = 0, via the constraint rank."""
    values = kd_table(hermitian_parameter_basis(d), dft_pair(d)).values
    sigma = np.linalg.svd(values.imag.reshape(d * d, -1), compute_uv=False)
    rank = int(np.count_nonzero(sigma > DEFAULT_TOL.rank_rel * sigma[0]))
    return d * d - rank


def check_dimension_triple(d: int) -> CheckResult:
    """Closed form == constraint nullity == span rank of the enumerated families."""
    closed = kd_real_dimension(d)
    nullity = imag_constraint_nullity(d)
    span = real_span_rank(all_projectors(pure_kd_set(dft_pair(d)))[0])
    return CheckResult(
        name=f"real-table dimension triple (d={d})",
        passed=closed == nullity == span,
        detail=f"closed-form {closed}, nullspace {nullity}, span rank {span}",
    )


def check_pure_states(d: int) -> CheckResult:
    """Every enumerated member: classical table, n_a*n_b = d, d cells of 1/d."""
    pair = dft_pair(d)
    good = []
    for v in (fam.states.T for fam in pure_kd_set(pair)):  # one member per row
        values = kd_table(v[:, :, None] * v.conj()[:, None, :], pair).values
        good.extend(
            (values.real.min(axis=(1, 2)) >= -1e-12)
            & (np.abs(values.imag).max(axis=(1, 2)) <= 1e-12)
            & np.equal([math.prod(support_counts(psi, pair)) for psi in v], d)
            & (np.count_nonzero(np.abs(values - 1.0 / d) <= 1e-12, axis=(1, 2)) == d)
            & (np.count_nonzero(np.abs(values) <= 1e-12, axis=(1, 2)) == d * d - d)
        )
    return CheckResult(
        name=f"pure-state suite (d={d})",
        passed=all(good),
        detail=f"{np.count_nonzero(good)}/{len(good)} members pass",
    )


def check_marginals(d: int, n: int = 100) -> CheckResult:
    """Total/row/column identities of the table on seeded density matrices."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=MARGINAL_SEED, spawn_key=(d,)))
    pair = dft_pair(d)
    worst = 0.0
    for _ in range(n):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = g @ g.conj().T
        rho /= rho.trace().real
        table = kd_table(rho, pair)
        worst = max(worst, abs(table.values.sum() - 1.0))
        worst = max(worst, float(np.abs(table.row_sums() - rho.diagonal()).max()))
        b_diag = (pair.transition.conj().T @ rho @ pair.transition).diagonal()
        worst = max(worst, float(np.abs(table.col_sums() - b_diag).max()))
    return CheckResult(
        name=f"marginal identities (d={d}, n={n})",
        passed=worst <= 1e-10,
        detail=f"worst deviation {worst:.2e}",
    )


def _prime_root(d: int) -> int | None:
    """p when d = p^2 with p prime (two divisors), else None: the quadruple identities are the paper's theorem for a prime p only."""
    p = math.isqrt(d)
    return p if p * p == d and len(factorizations(p)) == 2 else None


def check_p2_roundtrip(d: int, n: int = 500) -> CheckResult:
    """Perturbation samples at d = p^2, p prime: conditions, decomposition, membership."""
    p = _prime_root(d)
    if p is None:
        raise ValueError(f"d={d} is not the square of a prime")
    pair = dft_pair(d)
    system = hull_system(pure_kd_set(pair))
    basis = perturbation_basis(None, pair)
    config = SampleConfig(d=d, seed=ROUNDTRIP_SEED, n_samples=n, mode="perturb")
    failures = []
    not_member = 0
    for index in range(n):
        rho = sample_kd_boundary(config, basis, index=index)
        try:  # decompose_p2 gates on classicality and the quadruple identities
            cert = decompose_p2(rho, pair, p)
        except (NotClassical, ConditionsFailed) as exc:
            failures.append(f"sample {index}: {exc}")
            continue
        membership = hull_membership(rho, system)
        if not membership.member:
            not_member += 1
        if not (
            cert.residual < 1e-9
            and cert.coefficients.min() >= 0.0
            and abs(cert.coefficient_sum - 1.0) <= 1e-9
            and membership.member
        ):
            failures.append(
                f"sample {index}: residual {cert.residual:.2e}, member {membership.member}"
            )
    return CheckResult(
        name=f"square-dimension round-trip (d={d}, n={n})",
        passed=not failures and not_member == 0,
        detail=f"{len(failures)} failures, {not_member} classical-not-member"
        + (f"; first: {failures[0]}" if failures else ""),
    )


def check_identity_resolutions(d: int) -> CheckResult | None:
    """Resolution identities of every PSI/PHI family within 1e-12."""
    pair = dft_pair(d)
    reports = [
        family_identity_sums(fam)
        for fam in pure_kd_set(pair)
        if fam.label not in ("A", "B")
    ]
    if not reports:
        return None
    worst = max(r.max_dev for r in reports)
    return CheckResult(
        name=f"resolution identities (d={d})",
        passed=worst <= 1e-12,
        detail=f"{len(reports)} families, worst deviation {worst:.2e}",
    )


def check_pq_three_decomposition(d: int, n: int = 200, sets=("B", "C", "D")) -> CheckResult:
    """Hull points of three families reconstructed by the fold construction."""
    pair = dft_pair(d)
    fams = lettered_families(pair, sets)
    states = np.hstack([fams[name].states for name in sets])
    rng = np.random.default_rng(np.random.SeedSequence(entropy=PQ3_SEED, spawn_key=(d,)))
    failures = 0
    worst = 0.0
    for _ in range(n):
        rho = (states * rng.dirichlet(np.ones(states.shape[1]))) @ states.conj().T
        cert = decompose_pq_three(rho, pair, sets=sets)
        worst = max(worst, cert.residual)
        if not (
            cert.residual < 1e-9
            and cert.coefficients.min() >= 0.0
            and abs(cert.coefficient_sum - 1.0) <= 1e-9
        ):
            failures += 1
    return CheckResult(
        name=f"three-family decomposition (d={d}, sets={''.join(sets)}, n={n})",
        passed=failures == 0,
        detail=f"{failures} failures, worst residual {worst:.2e}",
    )


def check_probe(d: int, n_perturb: int = 500, n_hull: int = 200) -> CheckResult:
    """Probe determinism (identical reruns), archiving, and hull soundness."""
    config = SampleConfig(d=d, seed=PROBE_SEED, n_samples=n_perturb, mode="perturb")
    with tempfile.TemporaryDirectory() as tmp:
        first = probe_conjecture(config, out_dir=tmp)
        # every margin-bearing candidate is archived; none are invented
        has_margin = first.worst_margin > 10 * config.tolerances.recon
        n_archived = len(first.counterexample_files)
        archived_ok = n_archived <= first.counts["classical_not_member"] and (
            n_archived >= 1 if has_margin else True
        )
        manifest_ok = n_archived == 0 or (Path(tmp) / "manifest.json").exists()
    second = probe_conjecture(config)
    deterministic = first.counts == second.counts and first.worst_margin == second.worst_margin
    classified = sum(first.counts.values()) == n_perturb
    hull_config = SampleConfig(d=d, seed=PROBE_SEED + 1, n_samples=n_hull, mode="hull")
    hull_report = probe_conjecture(hull_config)
    sound = hull_report.counts["not_classical"] == 0
    return CheckResult(
        name=f"conjecture probe (d={d}, perturb n={n_perturb}, hull n={n_hull})",
        passed=deterministic and classified and sound and archived_ok and manifest_ok,
        detail=(
            f"perturb counts {first.counts}, worst margin {first.worst_margin:.2e}, "
            f"deterministic={deterministic}, archived={len(first.counterexample_files)}, "
            f"hull not_classical={hull_report.counts['not_classical']}"
        ),
    )


def run_dimension_suite(d: int) -> list[CheckResult]:
    """All checks applicable to one dimension, acceptance counts where pinned."""
    results: list[CheckResult] = []
    for maybe in (check_rank_pins(d), check_categories(d)):
        if maybe is not None:
            results.append(maybe)
    if d >= 3:
        results.append(check_kd_real_equivalence(d))
    if 2 <= d <= 16:
        results.append(check_dimension_triple(d))
    results.append(check_pure_states(d))
    results.append(check_marginals(d))
    if _prime_root(d) is not None:
        results.append(check_p2_roundtrip(d, n=500 if d == 9 else 100))
    maybe = check_identity_resolutions(d)
    if maybe is not None:
        results.append(maybe)
    if prime_pair(d) is not None:
        results.append(check_pq_three_decomposition(d, n=200 if d == 6 else 50))
        results.append(check_probe(d, n_perturb=500 if d == 6 else 100, n_hull=100))
    return results
