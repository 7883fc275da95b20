from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import kdclassical
from kdclassical import (
    PureFamily,
    SampleConfig,
    decompose_pq_three,
    dft_pair,
    factorizations,
    geometry,
    hull_membership,
    kd_real_basis,
    matrix_from_json,
    matrix_to_json,
    psi_state,
    pure_kd_set,
    sample_kd_boundary,
)
from kdclassical.cli import run
from kdclassical.exceptions import ZeroDirection
from kdclassical.families import all_projectors, lettered_families
from kdclassical.harness import _generators, _ginibre_states


def write_state(path, matrix):
    path.write_text(json.dumps(matrix_to_json(matrix)), encoding="utf-8")
    return str(path)


def hull_state(d, seed):
    projs, _ = all_projectors(pure_kd_set(dft_pair(d)))
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(len(projs)))
    return sum(wi * p for wi, p in zip(w, projs))


def test_real_dim(capsys):
    assert run(["real-dim", "--d", "6"]) == 0
    assert capsys.readouterr().out.strip() == "15"
    assert run(["real-dim", "--d", "9", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"d": 9, "real_dimension": 21}


def test_dft_roundtrip_bit_identical(tmp_path, capsys):
    out = tmp_path / "u.json"
    assert run(["dft", "--d", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text(encoding="utf-8")
    matrix = matrix_from_json(json.loads(text))
    assert json.dumps(matrix_to_json(matrix)) == text
    assert np.abs(matrix - dft_pair(4).transition).max() == 0.0


def test_table_missing_file_exit_2(capsys):
    assert run(["table", "--state", "does-not-exist.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_table_dimension_mismatch_exit_2(tmp_path, capsys):
    state = write_state(tmp_path / "s.json", np.eye(4) / 4)
    assert run(["table", "--state", state, "--d", "5"]) == 2
    capsys.readouterr()


def test_table_csv_output(tmp_path, capsys):
    state = write_state(tmp_path / "s.json", np.eye(4) / 4)
    csv_path = tmp_path / "t.csv"
    assert run(["table", "--state", state, "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "i,j,re,im"
    assert len(lines) == 17
    i, j, re, im = lines[1].split(",")
    assert (i, j) == ("0", "0")
    assert abs(float(re) - 1 / 16) <= 1e-15
    assert float(im) == 0.0


def test_table_stdout_and_json(tmp_path, capsys):
    state = write_state(tmp_path / "s.json", np.eye(3) / 3)
    assert run(["table", "--state", state]) == 0
    out = capsys.readouterr().out
    assert out.startswith("i,j,re,im\n") and len(out.splitlines()) == 10
    assert run(["table", "--state", state, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["d"] == 3 and len(doc["values"]) == 9


def test_check_verdict(tmp_path, capsys):
    state = write_state(tmp_path / "s.json", np.eye(5) / 5)
    assert run(["check", "--state", state]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["classical"] is True and doc["witness"] is None


@pytest.mark.parametrize("command", ["check", "member"])
def test_non_finite_state_exits_2(tmp_path, capsys, command):
    doc = matrix_to_json(np.eye(4) / 4)
    doc["entries"][5] = ["nan", 0.0]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run([command, "--state", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "non-finite" in captured.err


@pytest.mark.parametrize("command", ["check", "member"])
def test_malformed_entries_exit_2(tmp_path, capsys, command):
    for i, entries in enumerate(([[0.5, 0], 5, [0, 0], [0.5, 0]], 5, [[0.5, 0], [None, 0], [0, 0], [0.5, 0]])):
        path = tmp_path / f"s{i}.json"
        path.write_text(json.dumps({"d": 2, "entries": entries}), encoding="utf-8")
        assert run([command, "--state", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "entr" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["check", "member"])
def test_boolean_entry_components_exit_2(tmp_path, capsys, command):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"d": 2, "entries": [[True, 0], [0, 0], [0, 0], [0.5, 0]]}), encoding="utf-8")
    assert run([command, "--state", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "boolean" in captured.err


def test_non_integer_dimension_exits_2(tmp_path, capsys):
    doc = matrix_to_json(np.eye(2) / 2)
    doc["d"] = 2.7
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["check", "--state", str(path)]) == 2
    assert "integer" in capsys.readouterr().err


def test_check_env_tolerance_override(tmp_path, capsys, monkeypatch):
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[1] = 1 / np.sqrt(2)
    state = write_state(tmp_path / "s.json", np.outer(psi, psi.conj()))
    assert run(["check", "--state", state]) == 0
    assert json.loads(capsys.readouterr().out)["classical"] is False
    monkeypatch.setenv("KD_DEFAULT_TOL", "1.0")
    assert run(["check", "--state", state]) == 0
    assert json.loads(capsys.readouterr().out)["classical"] is True


def test_pure_writes_families(tmp_path, capsys):
    out = tmp_path / "fams"
    assert run(["pure", "--d", "6", "--out", str(out), "--json"]) == 0
    files = json.loads(capsys.readouterr().out)["files"]
    assert len(files) == 4
    doc = json.loads((out / "family_PSI_2_3.json").read_text())
    assert doc["label"] == "PSI(2,3)" and len(doc["members"]) == 6
    proj = matrix_from_json(doc["members"][0]["projector"])
    assert abs(np.trace(proj) - 1.0) <= 1e-12


@pytest.mark.parametrize("d", [6, 12])
def test_pure_files_match_the_reference_builder(tmp_path, capsys, d):
    pair = dft_pair(d)
    out = tmp_path / "fams"
    assert run(["pure", "--d", str(d), "--out", str(out), "--json"]) == 0
    files = json.loads(capsys.readouterr().out)["files"]
    assert len(files) == len(factorizations(d))
    for name in files:
        doc = json.loads((out / name).read_text())
        p, q = doc["p"], doc["q"]
        members = doc["members"]
        assert [(member["m"], member["s"]) for member in members] == [(k // q, k % q) for k in range(p * q)]
        for member in members:
            v = psi_state(pair, p, q, member["m"], member["s"])
            assert member["projector"] == matrix_to_json(np.outer(v, v.conj()))


def test_categories_json_and_render(capsys):
    assert run(["categories", "--d", "9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["categories"]) == 6 and len(doc["diagonal"]) == 9
    assert run(["categories", "--d", "5", "--render"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 5 and rows[0][0] == "." and rows[0][1] == rows[1][2]


def test_span_rank(capsys):
    assert run(["span-rank", "--d", "9"]) == 0
    assert capsys.readouterr().out.strip() == "21"
    assert run(["span-rank", "--d", "5", "--sets", "AB"]) == 0
    assert capsys.readouterr().out.strip() == "9"
    assert run(["span-rank", "--d", "6", "--sets", "BCD", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 13
    assert run(["span-rank", "--d", "5", "--sets", "CD"]) == 2


def test_span_rank_refuses_a_repeated_family_letter(capsys):
    assert run(["span-rank", "--d", "6", "--sets", "AA", "--json"]) == 2
    captured = capsys.readouterr()
    assert "named twice" in captured.err and captured.out == ""


def test_span_rank_rejects_empty_sets(capsys):
    assert run(["span-rank", "--d", "6", "--sets", ""]) == 2
    captured = capsys.readouterr()
    assert "names no family" in captured.err and captured.out == ""


def test_decompose_p2(tmp_path, capsys):
    state = write_state(tmp_path / "s.json", hull_state(9, 31))
    assert run(["decompose", "--state", state, "--mode", "p2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["residual"] <= 1e-9
    assert len(doc["labels"]) == len(doc["coeffs"]) == 27
    assert min(doc["coeffs"]) >= 0.0


def test_decompose_p2_rejects_nonclassical(tmp_path, capsys):
    psi = np.zeros(9, dtype=complex)
    psi[0] = psi[1] = 1 / np.sqrt(2)
    state = write_state(tmp_path / "s.json", np.outer(psi, psi.conj()))
    assert run(["decompose", "--state", state, "--mode", "p2"]) == 2
    capsys.readouterr()


def test_decompose_pq3_with_out_file(tmp_path, capsys):
    pair = dft_pair(6)
    fams = {f.label: f for f in pure_kd_set(pair)}
    projs = (
        fams["B"].projectors() + fams["PSI(2,3)"].projectors() + fams["PHI(3,2)"].projectors()
    )
    rng = np.random.default_rng(37)
    w = rng.dirichlet(np.ones(len(projs)))
    rho = sum(wi * p for wi, p in zip(w, projs))
    state = write_state(tmp_path / "s.json", rho)
    cert_path = tmp_path / "cert.json"
    assert run(
        ["decompose", "--state", state, "--mode", "pq3", "--sets", "BCD", "--out", str(cert_path)]
    ) == 0
    capsys.readouterr()
    doc = json.loads(cert_path.read_text())
    assert doc["residual"] <= 1e-9


def test_member(tmp_path, capsys):
    state = write_state(tmp_path / "s.json", np.eye(6) / 6)
    assert run(["member", "--state", state, "--d", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["member"] is True and doc["distance"] <= 1e-9


def test_probe_byte_identical_outputs(tmp_path, capsys):
    args = ["probe", "--d", "6", "--mode", "perturb", "--samples", "25", "--seed", "77"]
    assert run(args + ["--out", str(tmp_path / "a")]) == 0
    first = capsys.readouterr().out
    assert run(args + ["--out", str(tmp_path / "b")]) == 0
    second = capsys.readouterr().out
    doc_a, doc_b = json.loads(first), json.loads(second)
    assert doc_a["counts"] == doc_b["counts"]
    assert doc_a["worst_margin"] == doc_b["worst_margin"]
    assert sum(doc_a["counts"].values()) == 25
    names_a = sorted(p.name for p in (tmp_path / "a").iterdir()) if (tmp_path / "a").exists() else []
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir()) if (tmp_path / "b").exists() else []
    assert names_a == names_b
    for name in names_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_verify_small_dimension(capsys):
    assert run(["verify", "--d", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_json(capsys):
    assert run(["verify", "--d", "4", "--json"]) == 0
    results = json.loads(capsys.readouterr().out)
    assert results and all(r["passed"] for r in results)


def test_console_script_and_unknown_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "kdclassical.cli", "real-dim", "--d", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "15"
    proc = subprocess.run(
        [sys.executable, "-m", "kdclassical.cli", "real-dim", "--d", "6", "--bogus"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_every_subcommand_has_help(capsys):
    for name in (
        "dft", "table", "check", "pure", "categories", "real-dim",
        "span-rank", "decompose", "member", "probe", "verify",
    ):
        with pytest.raises(SystemExit) as info:
            run([name, "--help"])
        assert info.value.code == 0
        assert "--json" in capsys.readouterr().out, f"{name} --help does not list --json"


def test_solver_failure_maps_to_exit_4(tmp_path, capsys, monkeypatch):
    from kdclassical import SolverDidNotConverge
    from kdclassical import cli as cli_module

    def explode(*args, **kwargs):
        raise SolverDidNotConverge("stub")

    monkeypatch.setattr(cli_module, "hull_membership", explode)
    state = write_state(tmp_path / "s.json", np.eye(4) / 4)
    assert run(["member", "--state", state]) == 4
    assert "solver error" in capsys.readouterr().err


def test_verify_runs_the_square_round_trip_only_at_prime_squares(capsys):
    # The quadruple identities and decompose_p2 are the paper's theorem for d = p^2 with p prime.
    assert run(["verify", "--d", "16"]) == 0
    assert "round-trip" not in capsys.readouterr().out
    for d in (4, 9, 25):
        assert run(["verify", "--d", str(d)]) == 0
        assert f"PASS  square-dimension round-trip (d={d}," in capsys.readouterr().out


@pytest.mark.parametrize("d", [1, 12, 16, 36])
def test_square_round_trip_refuses_a_dimension_that_is_not_a_prime_square(d):
    from kdclassical.verify import check_p2_roundtrip

    with pytest.raises(ValueError, match="square of a prime"):
        check_p2_roundtrip(d, n=1)


def test_square_round_trip_fails_with_the_reason_decompose_p2_gives(monkeypatch):
    # One drawn sample is swapped for a Ginibre state, which is not KD classical: the round trip
    # must fail on it and carry decompose_p2's own message, not a verdict of its own.
    from kdclassical import verify
    from kdclassical.exceptions import NotClassical
    from kdclassical.geometry import decompose_p2

    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    bad = g @ g.conj().T / np.trace(g @ g.conj().T).real
    with pytest.raises(NotClassical) as info:
        decompose_p2(bad, dft_pair(4), 2)
    draw = verify.sample_kd_boundary
    monkeypatch.setattr(
        verify, "sample_kd_boundary", lambda config, basis, index: bad if index == 1 else draw(config, basis, index=index)
    )
    result = verify.check_p2_roundtrip(4, n=3)
    assert not result.passed
    assert result.detail == f"1 failures, 0 classical-not-member; first: sample 1: {info.value}"


def _moved(categories, cell, src, dst):
    """The categories with ``cell`` moved from categories[src] into categories[dst]."""
    cats = list(categories)
    cats[src] = dataclasses.replace(cats[src], cells=tuple(c for c in cats[src].cells if c != cell))
    cats[dst] = dataclasses.replace(cats[dst], cells=cats[dst].cells + (cell,))
    return tuple(cats)


@pytest.mark.parametrize("d", [5, 6, 9])
@pytest.mark.parametrize("swap", [False, True])
def test_category_check_fails_when_a_cell_changes_category(monkeypatch, d, swap):
    # Moving one cell changes two category sizes; swapping two cells between same-size
    # categories keeps the sizes, so only the pinned memberships can catch it.
    from kdclassical import verify
    from kdclassical.kdreal import entry_partition

    part = entry_partition(d)
    assert verify.check_categories(d).passed
    cats = part.categories
    src = next(i for i, c in enumerate(cats) if (0, {5: 1, 6: 3, 9: 3}[d]) in c.cells)
    size = len(cats[src].cells) + len(cats[src].conjugate_cells)
    dst = next(i for i, c in enumerate(cats) if i != src and len(c.cells) + len(c.conjugate_cells) == size)
    moved = _moved(cats, cats[src].cells[0], src, dst)
    if swap:
        moved = _moved(moved, cats[dst].cells[0], dst, src)
    monkeypatch.setattr(verify, "entry_partition", lambda n: dataclasses.replace(part, categories=moved))
    result = verify.check_categories(d)
    assert not result.passed and "WRONG" in result.detail


def test_decompose_p2_refuses_a_dimension_that_is_not_square(tmp_path, capsys):
    state = write_state(tmp_path / "s.json", np.eye(6) / 6)
    assert run(["decompose", "--state", state, "--mode", "p2"]) == 2
    assert "not a perfect square" in capsys.readouterr().err


def test_member_refuses_a_state_of_another_dimension(tmp_path, capsys):
    state = write_state(tmp_path / "s.json", np.eye(6) / 6)
    assert run(["member", "--state", state, "--d", "5"]) == 2
    assert "--d says 5" in capsys.readouterr().err


def test_verify_d9_passes(capsys):
    assert run(["verify", "--d", "9"]) == 0
    out = capsys.readouterr().out
    assert "rank 21, expected 21" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_env_tolerance_exits_2(tmp_path, capsys, monkeypatch, value):
    state = write_state(tmp_path / "s.json", np.eye(4) / 4)
    monkeypatch.setenv("KD_DEFAULT_TOL", value)
    assert run(["check", "--state", state]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "KD_DEFAULT_TOL" in captured.err


def test_linear_algebra_failure_maps_to_exit_4(tmp_path, capsys, monkeypatch):
    from kdclassical import cli as cli_module

    def explode(*args, **kwargs):
        raise np.linalg.LinAlgError("stub")

    monkeypatch.setattr(cli_module, "hull_membership", explode)
    state = write_state(tmp_path / "s.json", np.eye(4) / 4)
    assert run(["member", "--state", state]) == 4
    assert "solver error" in capsys.readouterr().err


def test_probe_output_stays_strict_json_when_solves_fail(tmp_path, capsys, monkeypatch):
    from kdclassical import harness as harness_module

    def explode(states, *args, **kwargs):
        return [None] * len(states)  # a stacked call reports each failed solve as None

    def no_constants(name):
        raise AssertionError(f"non-JSON token {name}")

    monkeypatch.setattr(harness_module, "hull_membership", explode)
    args = ["probe", "--d", "6", "--mode", "perturb", "--samples", "4", "--seed", "12721"]
    assert run(args + ["--out", str(tmp_path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=no_constants)
    assert doc["worst_margin"] == 0.0 and doc["solver_failures"] == 4


def test_span_rank_family_letters_at_d12(capsys):
    # d = 12 is not a product of two distinct primes, so C and D are undefined
    # there; A and B still are.
    assert run(["span-rank", "--d", "12", "--sets", "CD"]) == 2
    assert "no family named 'C' at d=12" in capsys.readouterr().err
    assert run(["span-rank", "--d", "12", "--sets", "D"]) == 2
    capsys.readouterr()
    assert run(["span-rank", "--d", "12", "--sets", "AB", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 23
    assert run(["span-rank", "--d", "6", "--sets", "CE"]) == 2


def run_capped(argv):
    """Run the CLI in a child whose address space is capped at 2 GiB; (exit code, seconds, stderr).

    With the cap, a missing memory guard fails with a MemoryError instead of
    filling the machine.
    """
    child = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from kdclassical.cli import run\n"
        "start = time.perf_counter()\n"
        f"code = run({argv!r})\n"
        "print(code, time.perf_counter() - start)\n"
    )
    src = os.path.dirname(os.path.dirname(kdclassical.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60)
    code, seconds = done.stdout.split()
    return int(code), float(seconds), done.stderr


def test_verify_beyond_physical_memory_exits_2_at_once():
    # d = 2520: the real-table block and basis alone take terabytes.
    code, seconds, stderr = run_capped(["verify", "--d", "2520"])
    assert code == 2 and seconds < 1.0
    assert "verify at d=2520 needs about" in stderr


def test_probe_beyond_physical_memory_exits_2_at_once():
    # d = 2520 has N = 120,960 family projectors, terabytes of set-up arrays.
    code, seconds, stderr = run_capped(["probe", "--d", "2520", "--mode", "perturb", "--samples", "1", "--seed", "1"])
    assert code == 2 and seconds < 1.0
    assert "d=2520 needs about" in stderr


def test_span_rank_beyond_physical_memory_exits_2_at_once():
    code, seconds, stderr = run_capped(["span-rank", "--d", "2520"])
    assert code == 2 and seconds < 1.0
    assert "span-rank at d=2520 needs about" in stderr


@pytest.mark.parametrize("command", ["dft", "categories"])
def test_dft_and_categories_beyond_physical_memory_exit_2_at_once(command):
    # d = 100,000: the d^2 entries' arrays and JSON take terabytes.
    argv = [command, "--d", "100000"] + (["--out", os.devnull] if command == "dft" else [])
    code, seconds, stderr = run_capped(argv)
    assert code == 2 and seconds < 1.0
    assert f"{command} at d=100000 needs about" in stderr


@pytest.mark.parametrize("command", ["dft", "categories"])
def test_dft_and_categories_estimates_cover_what_they_allocate(tmp_path, capsys, command):
    import tracemalloc

    from kdclassical.harness import setup_bytes

    d = 20
    argv = [command, "--d", str(d)] + (["--out", str(tmp_path / "u.json")] if command == "dft" else [])
    assert run(argv) == 0  # first-call caches
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= setup_bytes(d, command) <= 2 * peak


def test_probe_of_a_space_with_no_traceless_direction_exits_2(capsys, monkeypatch):
    # At d = 1 the real-table space is the identity's span. The probe refuses
    # before it seeds a generator, with the reason a single draw gives.
    import kdclassical.harness as harness_module

    with pytest.raises(ZeroDirection, match="^basis has no traceless component$"):
        sample_kd_boundary(SampleConfig(d=1, seed=1, n_samples=1, mode="perturb"), None)

    def forbidden(*args, **kwargs):
        raise AssertionError("a generator was seeded")

    monkeypatch.setattr(harness_module, "_generators", forbidden)
    assert run(["probe", "--d", "1", "--mode", "perturb", "--samples", "3", "--seed", "1"]) == 2
    assert capsys.readouterr().err.strip() == "error: basis has no traceless component"


@pytest.mark.parametrize("command", ["member", "span-rank", "pure", "verify"])
def test_entry_points_refuse_what_physical_memory_cannot_hold(tmp_path, monkeypatch, capsys, command):
    import kdclassical.harness as harness_module
    from kdclassical.harness import setup_bytes

    d = 6
    argv = {
        "member": ["member", "--state", write_state(tmp_path / "rho.json", np.eye(d) / d)],
        "span-rank": ["span-rank", "--d", str(d)],
        "pure": ["pure", "--d", str(d), "--out", str(tmp_path / "families")],
        "verify": ["verify", "--d", str(d)],
    }[command]
    need = setup_bytes(d, command)
    monkeypatch.setattr(harness_module, "_physical_memory", lambda: need - 1)
    assert run(argv) == 2
    assert f"{command} at d={d} needs about" in capsys.readouterr().err
    assert not (tmp_path / "families").exists()
    monkeypatch.setattr(harness_module, "_physical_memory", lambda: need)
    assert run(argv) == 0


def test_span_rank_estimate_counts_only_the_chosen_families(monkeypatch, capsys):
    import kdclassical.harness as harness_module
    from kdclassical.harness import setup_bytes

    need = setup_bytes(6, "span-rank", families=2)
    assert need < setup_bytes(6, "span-rank")
    monkeypatch.setattr(harness_module, "_physical_memory", lambda: need)
    assert run(["span-rank", "--d", "6", "--sets", "CD"]) == 0
    assert capsys.readouterr().out.strip() == "11"
    assert run(["span-rank", "--d", "6", "--sets", "BCD"]) == 2


@pytest.mark.parametrize("command", ["member", "span-rank", "pure"])
def test_entry_point_estimate_covers_what_it_allocates(tmp_path, capsys, command):
    # tracemalloc sees numpy's arrays and Python's objects, not LAPACK's
    # workspace, so its peak is a floor for the true one.
    import tracemalloc

    from kdclassical.harness import setup_bytes

    d = 20
    argv = {
        "member": ["member", "--state", write_state(tmp_path / "rho.json", np.eye(d) / d)],
        "span-rank": ["span-rank", "--d", str(d)],
        "pure": ["pure", "--d", str(d), "--out", str(tmp_path / "families")],
    }[command]
    assert run(argv) == 0  # first-call caches
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= setup_bytes(d, command) <= 2 * peak


def test_member_estimate_covers_the_resident_peak_of_the_kernel_eigh(tmp_path):
    # tracemalloc does not see LAPACK's copy of the Gram and its workspace, so the kernel's eigh is checked
    # against a child's resident set. A family member's projector at d = 96 (n = 1,152) fails its Weyl
    # candidate, and the eigh's 4 n^2 reals make the peak; a d = 6 one first loads every library page.
    from kdclassical.harness import setup_bytes

    paths = {}
    for d in (6, 96):
        v = pure_kd_set(dft_pair(d))[-1].states[:, 1]
        paths[d] = write_state(tmp_path / f"rho{d}.json", np.outer(v, v.conj()))
    child = (
        "import resource, numpy as np\n"
        "from kdclassical.cli import run\n"
        "sizes, eigh = [], np.linalg.eigh\n"
        "np.linalg.eigh = lambda a: (sizes.append(len(a)), eigh(a))[1]\n"
        f"assert run(['member', '--state', {paths[6]!r}]) == 0\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        f"assert run(['member', '--state', {paths[96]!r}]) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, *sizes)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kdclassical.__file__)))
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60, check=True)
    grown_kib, *sizes = map(int, done.stdout.splitlines()[-1].split())  # after the verdicts' JSON
    assert sizes == [24, 1152]
    assert 1024 * grown_kib <= setup_bytes(96, "member")  # 0.91 of it on a 2-core x86 VM


@pytest.mark.parametrize(
    "command, d",
    [(mode, d) for mode in ("perturb", "hull", "ginibre") for d in (2, 6, 9, 14, 15, 30)]
    + [("verify", d) for d in (6, 9, 12, 14, 15, 16, 25)],
)
def test_probe_and_verify_estimates_cover_their_traced_peak(capsys, command, d):
    # A probe draws two stacks, so that the first stack's verdicts are alive while the second is solved.
    import tracemalloc

    from kdclassical.harness import setup_bytes, stack_height

    samples = ["--mode", command, "--samples", str(2 * stack_height(d)), "--seed", "12721"]
    argv = ["verify", "--d", str(d)] if command == "verify" else ["probe", "--d", str(d), *samples]
    assert run(argv) == 0  # first-call caches
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= setup_bytes(d, command)


def member_states(d):
    """I/d, two perturbation states and two Ginibre states; at d = 6 also the README's sample 235."""
    config = SampleConfig(d=d, seed=12721, n_samples=1, mode="perturb")
    basis = kd_real_basis(d)
    indices = [0, 1] + ([235] if d == 6 else [])
    return (
        [np.eye(d, dtype=complex) / d]
        + [sample_kd_boundary(config, basis, index=i) for i in indices]
        + list(_ginibre_states(_generators(5, 0, 2), d))
    )


@pytest.mark.parametrize("d", [6, 9, 12, 30])
def test_member_agrees_with_the_projector_list_route(tmp_path, capsys, d):
    projectors, labels = all_projectors(pure_kd_set(dft_pair(d)))
    for k, rho in enumerate(member_states(d)):
        assert run(["member", "--state", write_state(tmp_path / f"s{k}.json", rho)]) == 0
        doc = json.loads(capsys.readouterr().out)
        want = hull_membership(rho, projectors, labels=labels)
        assert doc["member"] is want.member
        assert abs(doc["distance"] - want.distance) <= 1e-12
        if want.member:
            assert doc["certificate"]["labels"] == list(want.certificate.labels)
    assert doc["member"] is False  # the Ginibre states lie off the span


def test_member_and_pq3_build_no_dense_projector(tmp_path, capsys, monkeypatch):
    d = 6
    pair = dft_pair(d)
    pq3_states = {}
    for sets in ("BCD", "ACD", "ABC", "ABD"):
        v = np.hstack([fam.states for fam in lettered_families(pair, sets).values()])
        pq3_states[sets] = (v * np.random.default_rng(3).dirichlet(np.ones(3 * d))) @ v.conj().T
    files = [write_state(tmp_path / f"s{k}.json", rho) for k, rho in enumerate(member_states(d))]

    def forbidden(*args, **kwargs):
        raise AssertionError("dense projector, stacked matrix or lstsq")

    monkeypatch.setattr(PureFamily, "projector", forbidden)
    monkeypatch.setattr(geometry, "stack_real", forbidden)
    monkeypatch.setattr(np.linalg, "lstsq", forbidden)
    for path in files:
        assert run(["member", "--state", path]) == 0
    for sets, rho in pq3_states.items():
        assert decompose_pq_three(rho, pair, sets=tuple(sets)).residual <= 1e-12
        path = write_state(tmp_path / f"pq3_{sets}.json", rho)
        assert run(["decompose", "--state", path, "--mode", "pq3", "--sets", sets]) == 0
    capsys.readouterr()


def _pq3_state(tmp_path):
    projs = [p for fam in lettered_families(dft_pair(6), "BCD").values() for p in fam.projectors()]
    w = np.random.default_rng(37).dirichlet(np.ones(len(projs)))
    return write_state(tmp_path / "s.json", sum(wi * p for wi, p in zip(w, projs)))


@pytest.mark.parametrize(
    "sets, message",
    [
        ("BBC", "family 'B' is named twice in 'BBC'"),
        ("BCE", "no family named 'E'; the letters are A, B, C, D"),
        ("BC", "sets must be three distinct labels among A, B, C, D"),
    ],
)
def test_decompose_pq3_refuses_letters_that_are_not_three_families(tmp_path, capsys, sets, message):
    state = _pq3_state(tmp_path)
    assert run(["decompose", "--state", state, "--mode", "pq3", "--sets", sets]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def _unwritable_output_argv(tmp_path, command):
    existing = tmp_path / "file"
    existing.write_text("", encoding="utf-8")
    missing = tmp_path / "missing" / "dir" / "out.json"
    if command == "dft":
        return ["dft", "--d", "3", "--out", str(missing)]
    if command == "pure":
        return ["pure", "--d", "3", "--out", str(existing)]
    if command == "probe":  # the one candidate is archived after every sample is solved
        return ["probe", "--d", "6", "--mode", "perturb", "--samples", "300", "--seed", "12721", "--out", str(existing)]
    if command == "table":
        return ["table", "--state", write_state(tmp_path / "s.json", np.eye(3) / 3), "--csv", str(tmp_path)]
    return ["decompose", "--state", _pq3_state(tmp_path), "--mode", "pq3", "--out", str(missing)]


@pytest.mark.parametrize("command", ["dft", "pure", "probe", "table", "decompose"])
def test_an_output_path_that_cannot_be_written_exits_2(tmp_path, capsys, command):
    assert run(_unwritable_output_argv(tmp_path, command)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [Errno ") and captured.out == ""
