"""Self-tests of the benchmark at a tiny size: ``python3 -m pytest benchmarks``."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import bench
import checks
import tracing
import workloads
from tracing import LAYER_METRICS, Tracer

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TINY = {"perturb-d6": 6, "perturb-d30": 1, "ginibre-d6": 6, "certify-d9": 4}


@pytest.fixture(scope="module")
def kd():
    return workloads.load_kdclassical()


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], n=TINY[name], recheck=2)


def run_main(monkeypatch, capsys, name: str, trace: int, workload=None) -> tuple[int, dict]:
    monkeypatch.setitem(bench.WORKLOADS, name, workload or tiny(name))
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    code = bench.main(["--workload", name, "--seconds", "0", "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_runs_and_passes_its_checks(kd, name):
    w = tiny(name)
    out = workloads.run(kd, w, workloads.DEFAULT_SEED, 0.0)
    assert len(out["walls"]) == 3
    if w.mode == "certify":
        assert out["failures"] == []
        assert checks.recheck_certify(w, workloads.DEFAULT_SEED, out["states"]) == []
    else:
        assert checks.check_probe(w, workloads.DEFAULT_SEED, out["reports"]) == []
        assert checks.recheck_probe(kd, w, workloads.DEFAULT_SEED, out["reports"][0]) == []


@pytest.mark.parametrize("name", ["perturb-d6", "ginibre-d6"])
def test_traced_and_untraced_runs_give_identical_counts(kd, name):
    w = tiny(name)
    plain = workloads.run(kd, w, 7, 0.0)["reports"][0]
    tracer = Tracer()
    with tracer.installed():
        traced = workloads.run(kd, w, 7, 0.0, tracer)["reports"][0]
    assert (traced.counts, traced.worst_margin) == (plain.counts, plain.worst_margin)
    assert kd.harness.hull_membership.__name__ == "hull_membership"  # originals restored
    assert set(tracer.layer_metrics(0.0)) == set(LAYER_METRICS)


def test_useful_hull_share_separates_classical_from_wasted_solves(kd):
    shares = {}
    for name in ("perturb-d6", "ginibre-d6"):
        tracer = Tracer()
        with tracer.installed():
            workloads.run(kd, tiny(name), 7, 0.0, tracer)
        shares[name] = tracer.layer_metrics(0.0)["geometry.useful_hull_share"]["value"]
    assert shares == {"perturb-d6": 1.0, "ginibre-d6": 0.0}


def test_missing_wrapped_name_is_reported_absent(kd, monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("solver.kkt", "kdclassical.solver", "_gone", None),))
    tracer = Tracer()
    with tracer.installed():
        workloads.run(kd, tiny("ginibre-d6"), 7, 0.0, tracer)
    metrics = tracer.layer_metrics(0.0)
    assert "solver.kkt_us" not in metrics and "solver.max_free" not in metrics
    assert "solver.solve_ms.p50" in metrics


def test_output_check_fails_on_a_tampered_count(kd):
    w = tiny("perturb-d6")
    reports = workloads.run(kd, w, 7, 0.0)["reports"]
    counts = dict(reports[0].counts, classical_and_member=reports[0].counts["classical_and_member"] + 1)
    tampered = dataclasses.replace(reports[-1], counts=counts)
    assert checks.check_probe(w, 7, reports + [tampered])
    assert checks.check_probe(w, 7, [tampered])
    full = workloads.WORKLOADS["ginibre-d6"]
    shrunk = dataclasses.replace(reports[0], counts={"not_classical": full.n - 1, "classical_and_member": 1,
                                                     "classical_not_member": 0})
    assert checks.check_probe(full, workloads.DEFAULT_SEED, [shrunk])


def test_command_exits_nonzero_when_the_check_fails(monkeypatch, capsys):
    name = "ginibre-d6"
    w = tiny(name)
    monkeypatch.setitem(checks.PINS, name, {"n": w.n, "worst_margin": 0.0,
                                            "counts": {"classical_and_member": 1, "classical_not_member": 0,
                                                       "not_classical": w.n - 1}})
    code, result = run_main(monkeypatch, capsys, name, 0, w)
    assert code == 1 and result["correct"] is False


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(monkeypatch, capsys, trace, section):
    code, result = run_main(monkeypatch, capsys, "certify-d9", trace)
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_benchmark_json_lists_known_workloads():
    listed = [w["name"] for w in SPEC["workloads"]]
    assert listed == [name for name in workloads.WORKLOADS if name in listed]
    assert {w["why"] for w in SPEC["workloads"]} <= {w.why for w in workloads.WORKLOADS.values()}
    assert set(LAYER_METRICS) == {m["name"] for m in SPEC["per_layer"]}


def test_tail_uses_the_highest_percentile_with_ten_values_beyond():
    assert bench.tail(list(range(1, 2001))) == (99.0, 1980)
    assert bench.tail(list(range(1, 101))) == (90.0, 90)
    assert bench.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
