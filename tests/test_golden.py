"""Golden text of the CLI: key names, key order, formatting and pinned values.

Each golden string is what the command printed or wrote, byte for byte,
except that ``<x>`` stands for a float that must lie within 1e-12 of x: its
last bits follow the BLAS build, while the text around it does not. The
files in ``golden_cli/`` hold the help of ``kd`` and of each subcommand at
80 columns (argparse's layout under Python 3.11) and ``kd categories`` in
JSON and rendered; they contain no float and are compared byte for byte.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from kdclassical import matrix_to_json
from kdclassical.cli import run

GOLDEN_DIR = Path(__file__).parent / "golden_cli"
COMMANDS = ["dft", "table", "check", "pure", "categories", "real-dim", "span-rank", "decompose", "member", "probe", "verify"]

CHECK_CLASSICAL = '{"classical": true, "min_real": <0.0625>, "max_imag_abs": <0.0>, "witness": null}\n'
CHECK_NOT_CLASSICAL = (
    '{"classical": false, "min_real": <0.0>, "max_imag_abs": <0.12499999999999997>, "witness": [0, 0]}\n'
)
VERIFY_D5 = (
    '[{"name": "entry categories (d=5)", "passed": true, "detail": "3 categories, expected 3; shift-pair memberships ok"}, '
    '{"name": "real-table check equivalence (d=5, n=200)", "passed": true, "detail": "0 disagreements, 0 unexpected verdicts"}, '
    '{"name": "real-table dimension triple (d=5)", "passed": true, "detail": "closed-form 9, nullspace 9, span rank 9"}, '
    '{"name": "pure-state suite (d=5)", "passed": true, "detail": "10/10 members pass"}, '
    '{"name": "marginal identities (d=5, n=100)", "passed": true, "detail": "worst deviation <3.33e-16>"}]\n'
)
PROBE_D6 = (
    '{"counts": {"classical_and_member": 249, "classical_not_member": 1, "not_classical": 0}, '
    '"worst_margin": <0.022795728761780598>, "counterexample_files": ["OUT/counterexample_00235.json"], '
    '"solver_failures": 0, "notes": ["perturb mode draws line segments from the maximally mixed state; '
    'such segments need not cover the whole classical set, so coverage is best-effort"]}\n'
)
MANIFEST_D6 = """{
  "d": 6,
  "seed": 12721,
  "mode": "perturb",
  "n_samples": 250,
  "tolerances": {
    "eig_psd": 1e-10,
    "classicality": 1e-09,
    "rank_rel": 1e-08,
    "recon": 1e-09
  },
  "candidates": [
    {
      "sample_index": 235,
      "file": "counterexample_00235.json",
      "margin": <0.022795728761780598>
    }
  ]
}"""


def assert_golden(text: str, golden: str) -> None:
    parts = re.split(r"<([^<>]+)>", golden)
    pattern = "".join(re.escape(part) if i % 2 == 0 else r"(-?[0-9][0-9.e+-]*)" for i, part in enumerate(parts))
    match = re.fullmatch(pattern, text)
    assert match is not None, f"text differs from the golden text:\n{text!r}\n{golden!r}"
    for got, want in zip(match.groups(), parts[1::2]):
        assert abs(float(got) - float(want)) <= 1e-12, (got, want)


def test_golden_text_refuses_a_changed_key_and_a_far_float():
    assert_golden('{"a": 0.5000000000001}', '{"a": <0.5>}')
    for text in ('{"b": 0.5}', '{"a": 0.6}', '{"a": 0.5, "b": 1}', '{"a":0.5}'):
        with pytest.raises(AssertionError):
            assert_golden(text, '{"a": <0.5>}')


def test_check_golden_json(tmp_path, capsys):
    v = np.array([1, 1j, 0, 0]) / np.sqrt(2)
    for rho, golden in ((np.eye(4) / 4, CHECK_CLASSICAL), (np.outer(v, v.conj()), CHECK_NOT_CLASSICAL)):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(matrix_to_json(rho)), encoding="utf-8")
        assert run(["check", "--state", str(path)]) == 0
        assert_golden(capsys.readouterr().out, golden)


def test_verify_d5_golden_json(capsys):
    assert run(["verify", "--d", "5", "--json"]) == 0
    assert_golden(capsys.readouterr().out, VERIFY_D5)


def test_probe_golden_report_and_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["probe", "--d", "6", "--mode", "perturb", "--samples", "250", "--seed", "12721", "--out", str(out), "--json"]
    assert run(args) == 0
    report = re.sub(r', "runtime_ms": [0-9]+', "", capsys.readouterr().out, count=1)
    assert_golden(report.replace(str(out), "OUT"), PROBE_D6)
    assert_golden((out / "manifest.json").read_text(encoding="utf-8"), MANIFEST_D6)


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_golden_text(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / f"help-{command or 'kd'}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("d", [5, 6, 9])
@pytest.mark.parametrize("render", [False, True])
def test_categories_golden_text(capsys, d, render):
    assert run(["categories", "--d", str(d)] + (["--render"] if render else [])) == 0
    name = f"categories-{d}-render.txt" if render else f"categories-{d}.json"
    assert capsys.readouterr().out == (GOLDEN_DIR / name).read_text(encoding="utf-8")
