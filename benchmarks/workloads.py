"""The benchmark's workloads and the closed loop that drives them.

One caller in one process: each operation is sent only after the previous
one has returned. Everything goes through kdclassical's public API, imported
from the checkout's ``src/`` (the package is not installed).

Why each workload exists, and which layer it bypasses. Later changes cite the
"no change" predictions made here.

perturb-d6
    ``probe_conjecture(d=6, mode="perturb")``, 250 samples: they hold the
    README's finding (sample 235 of seed 12721 is KD classical yet outside
    the hull).
    Time splits about evenly between the per-sample rebuild of the direction
    basis (``traceless_real_table_directions``) and short hull solves of
    about 15 KKT steps on interior points, so it shows both a sampler hoist
    and a solver change. It is not listed in ``BENCHMARK.json``: the budget
    for repeated runs allows 35-second runs for three workloads only, and
    shorter runs did not hold their spread on a host whose speed drifts.
    perturb-d30 still exercises the sampler hoist; run this one by hand.
perturb-d30
    The same probe at d=30: 240 family projectors, about 137 KKT steps per
    sample, the solver about two thirds of the time. It holds the
    "<= 60 ms/sample" gate and shows a Gram-space solver and the size of the
    stacked 2d^2 x n matrix. Four samples per call keep a call near a second.
ginibre-d6
    Ginibre states at d=6. Every sample is non-classical and outside the
    hull, so the hull solve (about 90% of the time) is wasted work. No
    direction basis is built: a sampler hoist must show no change here, and
    skipping the hull solve for non-classical samples must show its gain.
certify-d9
    One-state certification, the use behind ``kd member`` and
    ``kd decompose``. States are drawn with ``sample_kd_boundary`` outside
    the timed region; each timed query is ``decompose_p2(rho, pair, 3)``
    followed by ``hull_membership(rho, projectors)``, with ``pair`` and
    ``projectors`` built once, as in the README's library example. It is the
    only workload that runs ``geometry.decompose_p2`` and it has no sampler
    in the timed path, so a sampler change must show no change here. Its
    inputs come from the benchmark's seed, unlike ``kd verify --d 9``, whose
    seeds are fixed inside the program.

The tier-1 suite's wall time is deliberately not a workload: every change
that adds a test would move it.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 12721


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    mode: str  # "perturb" or "ginibre" for probes, "certify" for one-state queries
    n: int  # samples per probe call, or states per certify pass
    recheck: int  # states re-decided independently after the run
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("perturb-d6", 6, "perturb", 250, 16,
                 "README finding at d=6: sampler direction rebuild and short hull solves split the time"),
        Workload("perturb-d30", 30, "perturb", 4, 2,
                 "d=30 probe: 240 columns and ~137 KKT steps per sample, the solver dominates"),
        Workload("ginibre-d6", 6, "ginibre", 250, 16,
                 "every sample non-classical: the hull solve is wasted work and no direction basis is built"),
        Workload("certify-d9", 9, "certify", 200, 16,
                 "one-state certification: decompose_p2 then hull_membership, no sampler in the timed path"),
    )
}


def load_kdclassical():
    """Import kdclassical from the checkout's src/, never from elsewhere."""
    if not (SRC / "kdclassical" / "__init__.py").is_file():
        raise RuntimeError(f"no kdclassical sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    kd = importlib.import_module("kdclassical")
    if not Path(kd.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"kdclassical was imported from {kd.__file__}, not from {SRC}")
    return kd


def probe_config(kd, w: Workload, seed: int, n: int | None = None):
    return kd.SampleConfig(d=w.d, seed=seed, n_samples=w.n if n is None else n, mode=w.mode)


class Certifier:
    """The certify workload's one-off set-up, and one query per state."""

    def __init__(self, kd, w: Workload):
        self.kd = kd
        self.p = round(w.d ** 0.5)
        self.pair = kd.dft_pair(w.d)
        self.projectors, _ = kd.all_projectors(kd.pure_kd_set(self.pair))
        self.basis = kd.kd_real_basis(w.d)

    def draw(self, w: Workload, seed: int, index: int):
        config = self.kd.SampleConfig(d=w.d, seed=seed, n_samples=w.n, mode="perturb")
        return self.kd.sample_kd_boundary(config, self.basis, index=index)

    def query(self, rho):
        """(certificate, verdict), or the exception the query raised."""
        kd = self.kd
        try:
            return kd.decompose_p2(rho, self.pair, self.p), kd.hull_membership(rho, self.projectors)
        except (kd.KDError, ValueError) as exc:  # LinAlgError is a ValueError
            return exc


def query_failure(outcome) -> str | None:
    """Why one certify query does not count as a certified member, or None."""
    if isinstance(outcome, Exception):
        return f"raised {type(outcome).__name__}: {outcome}"
    cert, verdict = outcome
    if not verdict.member:
        return f"not a hull member (distance {verdict.distance:.3e})"
    for label, c in (("decompose_p2", cert), ("hull", verdict.certificate)):
        if not c.residual <= 1e-9:
            return f"{label} residual {c.residual:.3e} > 1e-9"
        if not abs(c.coefficient_sum - 1.0) <= 1e-9:
            return f"{label} coefficient sum {c.coefficient_sum!r} is not 1"
    return None


def first_unit(name: str, seed: int) -> float:
    """Seconds from ``import kdclassical`` to the first completed unit of work.

    A unit is a 1-sample probe, or the first certify query with its ``pair``
    and ``projectors`` built; drawing the queried state is not counted.
    """
    w = WORKLOADS[name]
    start = time.perf_counter()
    kd = load_kdclassical()
    if w.mode != "certify":
        kd.probe_conjecture(probe_config(kd, w, seed, n=1))
        return time.perf_counter() - start
    certifier = Certifier(kd, w)
    built = time.perf_counter()
    rho = certifier.draw(w, seed, 0)
    resumed = time.perf_counter()
    failure = query_failure(certifier.query(rho))
    done = time.perf_counter()
    if failure:
        raise RuntimeError(f"first certify query failed: {failure}")
    return (built - start) + (done - resumed)


def run(kd, w: Workload, seed: int, seconds: float, tracer=None) -> dict:
    """Repeat the workload's operation for ``seconds``, at least three times.

    No block is started that would, at the fastest block's pace, end after
    the deadline.

    Probes repeat one ``probe_conjecture`` call with the same seed, so every
    repetition does identical work. Certify makes whole passes over the same
    pre-drawn states. With a tracer, the calls run under it and each call
    (or state drawn, or query) is a root span.
    """
    if w.mode == "certify":
        return _run_certify(kd, w, seed, seconds, tracer)
    config = probe_config(kd, w, seed)
    walls, reports = [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < 3 or time.perf_counter() + min(walls) < deadline:
        with _root(tracer, "probe", w.n):
            t0 = time.perf_counter()
            report = kd.probe_conjecture(config)
            walls.append(time.perf_counter() - t0)
        reports.append(report)
    return {"walls": walls, "per_state_s": [[wall / w.n] for wall in walls], "reports": reports}


def _run_certify(kd, w: Workload, seed: int, seconds: float, tracer) -> dict:
    with _root(tracer, "setup", 0):
        certifier = Certifier(kd, w)
    states = []
    for index in range(w.n):
        with _root(tracer, "draw", 1):
            states.append(certifier.draw(w, seed, index))
    passes: list[list[float]] = []
    failures: list[str] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < 3 or time.perf_counter() + min(map(sum, passes)) < deadline:
        query_s = []
        for index, rho in enumerate(states):
            with _root(tracer, "query", 1):
                t0 = time.perf_counter()
                outcome = certifier.query(rho)
                query_s.append(time.perf_counter() - t0)
            failure = query_failure(outcome)
            if failure:
                failures.append(f"state {index}: {failure}")
        passes.append(query_s)
    return {"walls": [sum(p) for p in passes], "per_state_s": passes, "failures": failures, "states": states}


def warm_up(kd, w: Workload, seed: int) -> None:
    """Finish first-call work (imports, BLAS start-up) before timing."""
    if w.mode == "certify":
        certifier = Certifier(kd, w)
        for index in range(5):
            certifier.query(certifier.draw(w, seed, index))
    else:
        kd.probe_conjecture(probe_config(kd, w, seed, n=1))


def _root(tracer, kind: str, samples: int):
    return contextlib.nullcontext() if tracer is None else tracer.root(kind, samples)
