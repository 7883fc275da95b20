"""Command-line entry point.

Exit codes: 0 success, 2 validation error (bad input file, dimension
mismatch, failed precondition), 3 negative verdict from ``verify``,
4 solver failure (non-convergence or a numpy ``LinAlgError``).
Human-readable messages go to stderr; ``--json`` switches stdout to
machine-readable JSON where a subcommand has a prose default. The environment variable ``KD_DEFAULT_TOL``
overrides the classicality tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dft import dft_pair
from .engine import classicality, kd_table
from .exceptions import SolverDidNotConverge, ValidationError
from .families import all_projectors, lettered_families, pure_kd_set
from .geometry import decompose_p2, decompose_pq_three, hull_membership
from .harness import MODES, SampleConfig, probe_conjecture, require_memory
from .kdreal import entry_partition, kd_real_dimension, render_partition
from .linalg import Tolerances, matrix_from_json, matrix_to_json, real_span_rank
from .verify import run_dimension_suite

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERDICT = 3
EXIT_SOLVER = 4


def default_tolerances() -> Tolerances:
    override = os.environ.get("KD_DEFAULT_TOL")
    if override is None:
        return Tolerances()
    try:
        return Tolerances(classicality=float(override))
    except ValueError as exc:
        raise ValidationError(f"bad KD_DEFAULT_TOL value {override!r}: {exc}") from exc


def _load_matrix(path: str):
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return matrix_from_json(doc)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _write_json(path: str | Path, doc) -> None:
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kd",
        description="Kirkwood-Dirac classicality toolkit for DFT base pairs.",
    )
    parser.add_argument("--version", action="version", version=f"kd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true")

    sp = sub.add_parser("dft", parents=[common], help="write the transition matrix of one dimension")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("table", parents=[common], help="quasiprobability table of a state, as CSV")
    sp.add_argument("--state", required=True)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--csv", default=None)

    sp = sub.add_parser("check", parents=[common], help="classicality verdict of a state, as JSON")
    sp.add_argument("--state", required=True)

    sp = sub.add_parser("pure", parents=[common], help="write every classical pure-state family")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("categories", parents=[common], help="entry partition of the real-table space")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--render", action="store_true")

    sp = sub.add_parser("real-dim", parents=[common], help="dimension of the real-table operator space")
    sp.add_argument("--d", type=int, required=True)

    sp = sub.add_parser("span-rank", parents=[common], help="real span rank of chosen families")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--sets", default=None, help="subset of ABCD, default all families")

    sp = sub.add_parser("decompose", parents=[common], help="constructive convex decomposition")
    sp.add_argument("--state", required=True)
    sp.add_argument("--mode", choices=("p2", "pq3"), required=True)
    sp.add_argument("--sets", default="BCD", help="three of ABCD for pq3 mode")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("member", parents=[common], help="hull membership against all families")
    sp.add_argument("--state", required=True)
    sp.add_argument("--d", type=int, default=None)

    sp = sub.add_parser("probe", parents=[common], help="seeded conjecture probe")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--mode", choices=MODES, required=True)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("verify", parents=[common], help="run the acceptance checks for one dimension")
    sp.add_argument("--d", type=int, required=True)

    return parser


def _cmd_dft(args) -> int:
    require_memory(args.d, "dft")
    pair = dft_pair(args.d)
    _write_json(args.out, matrix_to_json(pair.transition))
    if args.json:
        print(json.dumps({"d": args.d, "out": args.out}))
    else:
        print(f"wrote {args.d}x{args.d} transition matrix to {args.out}")
    return EXIT_OK


def _cmd_table(args) -> int:
    rho = _load_matrix(args.state)
    d = rho.shape[0]
    if args.d is not None and args.d != d:
        raise ValidationError(f"state has dimension {d}, --d says {args.d}")
    table = kd_table(rho, dft_pair(d))
    if args.json:
        values = matrix_to_json(table.values)["entries"]
        print(json.dumps({"d": d, "source_trace": table.source_trace, "values": values}))
        return EXIT_OK
    lines = ["i,j,re,im"]
    for i in range(d):
        for j in range(d):
            z = table.values[i, j]
            lines.append(f"{i},{j},{float(z.real)!r},{float(z.imag)!r}")
    text = "\n".join(lines) + "\n"
    if args.csv is not None:
        Path(args.csv).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {d * d} cells to {args.csv}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_check(args) -> int:
    rho = _load_matrix(args.state)
    verdict = classicality(kd_table(rho, dft_pair(rho.shape[0])), default_tolerances())
    print(json.dumps(verdict.to_json()))
    return EXIT_OK


def _cmd_pure(args) -> int:
    require_memory(args.d, "pure")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for fam in pure_kd_set(dft_pair(args.d)):
        doc = {
            "label": fam.label,
            "d": fam.dim,
            "p": fam.p,
            "q": fam.q,
            "members": [
                {"m": m, "s": s, "projector": matrix_to_json(fam.projector(m, s))}
                for m, s in (divmod(k, fam.q) for k in range(fam.p * fam.q))
            ],
        }
        name = "family_" + fam.label.replace("(", "_").replace(")", "").replace(",", "_") + ".json"
        _write_json(out / name, doc)
        written.append(name)
    if args.json:
        print(json.dumps({"d": args.d, "files": written}))
    else:
        print(f"wrote {len(written)} families to {out}")
    return EXIT_OK


def _cmd_categories(args) -> int:
    require_memory(args.d, "categories")
    part = entry_partition(args.d)
    if args.render:
        print(render_partition(part))
        return EXIT_OK
    print(json.dumps(part.to_json()))
    return EXIT_OK


def _cmd_real_dim(args) -> int:
    dim = kd_real_dimension(args.d)
    if args.json:
        print(json.dumps({"d": args.d, "real_dimension": dim}))
    else:
        print(dim)
    return EXIT_OK


def _cmd_span_rank(args) -> int:
    chosen = "all" if args.sets is None else args.sets.upper()
    if not chosen:
        raise ValueError("--sets names no family; give letters among A, B, C, D")
    require_memory(args.d, "span-rank", families=None if args.sets is None else len(set(chosen)))
    pair = dft_pair(args.d)
    if args.sets is None:
        projectors = all_projectors(pure_kd_set(pair))[0]
    else:
        projectors = [p for fam in lettered_families(pair, chosen).values() for p in fam.projectors()]
    rank = real_span_rank(projectors)
    if args.json:
        print(json.dumps({"d": args.d, "sets": chosen, "rank": rank}))
    else:
        print(rank)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    rho = _load_matrix(args.state)
    d = rho.shape[0]
    pair = dft_pair(d)
    tol = default_tolerances()
    if args.mode == "p2":
        p = math.isqrt(d)
        if p * p != d:
            raise ValidationError(f"state dimension {d} is not a perfect square")
        cert = decompose_p2(rho, pair, p, tol)
    else:
        sets = tuple(args.sets.upper())
        cert = decompose_pq_three(rho, pair, sets=sets, tol=tol)
    doc = cert.to_json()
    if args.out is not None:
        _write_json(args.out, doc)
        print(f"wrote certificate to {args.out}", file=sys.stderr)
    else:
        print(json.dumps(doc))
    return EXIT_OK


def _cmd_member(args) -> int:
    rho = _load_matrix(args.state)
    d = rho.shape[0]
    if args.d is not None and args.d != d:
        raise ValidationError(f"state has dimension {d}, --d says {args.d}")
    require_memory(d, "member")
    families = pure_kd_set(dft_pair(d))
    labels = [label for fam in families for label in fam.labels()]
    verdict = hull_membership(rho, families, default_tolerances(), labels=labels)
    print(json.dumps(verdict.to_json()))
    return EXIT_OK


def _cmd_probe(args) -> int:
    config = SampleConfig(
        d=args.d,
        seed=args.seed,
        n_samples=args.samples,
        mode=args.mode,
        tolerances=default_tolerances(),
    )
    report = probe_conjecture(config, out_dir=args.out)
    print(json.dumps(report.to_json(), allow_nan=False))
    return EXIT_OK


def _cmd_verify(args) -> int:
    require_memory(args.d, "verify")
    results = run_dimension_suite(args.d)
    if args.json:
        print(
            json.dumps(
                [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
            )
        )
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.name:<{width}}  {r.detail}")
        n_bad = sum(not r.passed for r in results)
        print(f"{len(results) - n_bad}/{len(results)} checks passed")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERDICT


_COMMANDS = {
    "dft": _cmd_dft,
    "table": _cmd_table,
    "check": _cmd_check,
    "pure": _cmd_pure,
    "categories": _cmd_categories,
    "real-dim": _cmd_real_dim,
    "span-rank": _cmd_span_rank,
    "decompose": _cmd_decompose,
    "member": _cmd_member,
    "probe": _cmd_probe,
    "verify": _cmd_verify,
}


def run(argv: list[str]) -> int:
    """Dispatch one invocation; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except np.linalg.LinAlgError as exc:  # a ValueError subclass, but a numerical failure
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverDidNotConverge as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
