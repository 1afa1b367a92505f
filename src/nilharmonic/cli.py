"""Command-line interface: dims, harmonic, preimage, verify.

Exit codes: 0 success, 1 validation error, 2 invariant failure,
3 internal inconsistency.  Output is deterministic: identical inputs
produce byte-identical text and JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .errors import InternalInconsistency, NilharmonicError, ValidationError
from .groups import GroupSchema, _require_ball_size
from .laplacian import Measure, dim_hk_from_pk, harmonic_basis, solve_preimage
from .polynomials import Polynomial, dim_pk_table
from .serialize import (
    measure_from_config,
    measure_to_config,
    parse_fraction,
    parse_polynomial,
    polynomial_to_obj,
    schema_from_config,
    schema_to_config,
)
from .suite import harmonic_failure, run_invariant_suite

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INVARIANT = 2
EXIT_INTERNAL = 3


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _load_json(path: str) -> Any:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal too long for int()
        raise ValidationError(f"cannot parse {path}: {exc}") from exc


def _load_group(path: str) -> GroupSchema:
    return schema_from_config(_load_json(path))


def _load_measure(schema: GroupSchema, path: str) -> Measure:
    return measure_from_config(schema, _load_json(path))


def _write_json(path: str, payload: Any) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from exc


# The most rows (degrees 0..k) a dims table may have.  At the limit
# lattice(36), the largest built-in schema, takes 1.7 s, peaks at 147 MB and
# writes 29 MB of text and 31 MB of JSON; the count takes O(k) memory, so a
# larger --k is refused before it starts.
MAX_DIMS_ROWS = 100_001


def cmd_dims(args: argparse.Namespace) -> int:
    schema = _load_group(args.group)
    if args.k < 0:
        raise ValidationError("--k must be non-negative")
    if args.k + 1 > MAX_DIMS_ROWS:
        raise ValidationError(
            f"--k {args.k} would make {args.k + 1} rows, more than the limit of "
            f"{MAX_DIMS_ROWS}"
        )
    # one count up to --k gives every row
    pk = dim_pk_table(schema, args.k)
    rows = [
        {"k": k, "dim_pk": d, "dim_hk": h} for k, (d, h) in enumerate(zip(pk, dim_hk_from_pk(pk)))
    ]
    kw, w = max(3, len(str(args.k))), max(7, len(str(pk[-1])))
    lines = [f"group: {schema.name()}", f"{'k':>{kw}}  {'dim_pk':>{w}}  {'dim_hk':>{w}}"]
    for row in rows:
        lines.append(f"{row['k']:>{kw}}  {row['dim_pk']:>{w}}  {row['dim_hk']:>{w}}")
    print("\n".join(lines))
    if args.json:
        _write_json(args.json, {"group": schema_to_config(schema), "rows": rows})
    return EXIT_OK


def _reads_back(p: Polynomial, obj: dict[str, Any]) -> bool:
    """Whether the text and the terms that ``polynomial_to_obj`` rendered for
    p each read back to p."""
    try:
        terms = {tuple(t["exponents"]): parse_fraction(t["coeff"]) for t in obj["terms"]}
        text = parse_polynomial(p.schema, obj["text"])
    except ValidationError:
        return False
    return len(terms) == len(obj["terms"]) and terms == p.terms and text == p


def cmd_harmonic(args: argparse.Namespace) -> int:
    schema = _load_group(args.group)
    measure = _load_measure(schema, args.measure)
    if args.verify:
        # the oracle's ball is refused before the basis is computed
        _require_ball_size(schema, measure.support(), args.radius)
    report = harmonic_basis(schema, measure, args.k)
    # one rendering pass per polynomial gives both its line and its JSON object
    basis = [polynomial_to_obj(p) for p in report.basis]
    lines = [
        f"group: {schema.name()}",
        f"measure: {len(measure.atoms)} atoms",
        f"k: {args.k}",
        f"dim: {report.dim} (predicted {report.predicted_dim})",
        "basis:",
    ]
    for i, obj in enumerate(basis, start=1):
        lines.append(f"  [{i}] {obj['text']}")
    verified = None
    if args.verify:
        # certified at S_(k-2) where it can be, or checked on the ball, whose
        # first failure names the witness (see suite.harmonic_failure)
        bad = harmonic_failure(measure, args.k, report.basis, args.radius)
        if bad is not None:
            i, c = bad
            lines.append(
                f"verify (radius {args.radius}): FAIL at basis element {i + 1}, "
                f"point {c.witness}, lhs {c.lhs}, rhs {c.rhs}"
            )
            verified = False
        else:
            # a verified report also reads back to the basis it was rendered from
            for i, (p, obj) in enumerate(zip(report.basis, basis), start=1):
                if not _reads_back(p, obj):
                    raise InternalInconsistency(f"basis element {i} does not read back")
            lines.append(
                f"verify (radius {args.radius}): all {report.dim} basis elements pass"
            )
            verified = True
    print("\n".join(lines))
    if args.json:
        payload = {
            "group": schema_to_config(schema),
            "measure": measure_to_config(measure),
            "k": args.k,
            "dim": report.dim,
            "predicted_dim": report.predicted_dim,
            "basis": basis,
        }
        if verified is not None:
            payload["verified"] = verified
        _write_json(args.json, payload)
    if verified is False:
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_preimage(args: argparse.Namespace) -> int:
    schema = _load_group(args.group)
    measure = _load_measure(schema, args.measure)
    target = parse_polynomial(schema, _read_text(args.polynomial))
    # solve_preimage verifies laplacian(p_hat) == target, or raises InternalInconsistency
    p_hat = solve_preimage(schema, measure, target)
    target_obj, p_hat_obj = polynomial_to_obj(target), polynomial_to_obj(p_hat)
    if not (_reads_back(target, target_obj) and _reads_back(p_hat, p_hat_obj)):
        raise InternalInconsistency("preimage does not read back")
    lines = [
        f"group: {schema.name()}",
        f"input: {target_obj['text']}",
        f"preimage: {p_hat_obj['text']}",
        f"degree: {p_hat.degree if not p_hat.is_zero else 0}",
        "verified: laplacian(preimage) == input",
    ]
    print("\n".join(lines))
    if args.json:
        _write_json(
            args.json,
            {
                "group": schema_to_config(schema),
                "input": target_obj,
                "preimage": p_hat_obj,
                "verified": True,
            },
        )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    schema = _load_group(args.group)
    measures = [_load_measure(schema, path) for path in args.measure]
    # the suite memoizes its group and polynomial records per group, so they
    # are checked once for all the measures; the Laplacian checks run for each
    runs = [run_invariant_suite(schema, m, args.k, args.radius) for m in measures]
    lines = [f"group: {schema.name()}"]
    reports = []
    for measure, records in zip(measures, runs):
        lines.append(f"measure: {len(measure.atoms)} atoms")
        for rec in records:
            status = "ok  " if rec.passed else "FAIL"
            detail = f" - {rec.detail}" if rec.detail else ""
            lines.append(f"{status} {rec.name}{detail}")
        n_pass = sum(1 for r in records if r.passed)
        lines.append(f"result: {n_pass}/{len(records)} checks passed")
        reports.append(
            {
                "measure": measure_to_config(measure),
                "checks": [
                    {"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in records
                ],
                "passed": n_pass == len(records),
            }
        )
    print("\n".join(lines))
    passed = all(report["passed"] for report in reports)
    if args.json:
        group = {"group": schema_to_config(schema)}
        if len(reports) == 1:
            _write_json(args.json, {**group, **reports[0]})
        else:
            _write_json(args.json, {**group, "runs": reports, "passed": passed})
    return EXIT_OK if passed else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilharmonic",
        description=(
            "Exact polynomial and harmonic-function spaces on torsion-free "
            "nilpotent groups"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dims = sub.add_parser("dims", help="table of polynomial/harmonic dimensions")
    dims.add_argument("--group", required=True, help="group config file (JSON)")
    dims.add_argument("--k", type=int, default=8, help="maximum degree (default 8)")
    dims.add_argument("--json", help="also write a JSON report to this path")
    dims.set_defaults(func=cmd_dims)

    harm = sub.add_parser("harmonic", help="basis of degree-<= k harmonic polynomials")
    harm.add_argument("--group", required=True, help="group config file (JSON)")
    harm.add_argument("--measure", required=True, help="measure config file (JSON)")
    harm.add_argument("--k", type=int, required=True, help="degree bound")
    harm.add_argument("--verify", action="store_true", help="run the mean-value oracle")
    harm.add_argument("--radius", type=int, default=5, help="oracle ball radius (default 5)")
    harm.add_argument("--json", help="also write a JSON report to this path")
    harm.set_defaults(func=cmd_harmonic)

    pre = sub.add_parser("preimage", help="solve laplacian(p) == q for p")
    pre.add_argument("--group", required=True, help="group config file (JSON)")
    pre.add_argument("--measure", required=True, help="measure config file (JSON)")
    pre.add_argument("polynomial", help="file containing q in caret-and-star syntax")
    pre.add_argument("--json", help="also write a JSON report to this path")
    pre.set_defaults(func=cmd_preimage)

    ver = sub.add_parser("verify", help="run the module invariant suite")
    ver.add_argument("--group", required=True, help="group config file (JSON)")
    ver.add_argument(
        "--measure", required=True, nargs="+",
        help="measure config file(s) (JSON); the suite runs once for each",
    )
    ver.add_argument("--k", type=int, default=4, help="maximum degree (default 4)")
    ver.add_argument("--radius", type=int, default=4, help="oracle ball radius (default 4)")
    ver.add_argument("--json", help="also write a JSON report to this path")
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except NilharmonicError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
