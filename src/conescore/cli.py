"""Command-line front end.

    conescore decompose|rank|design|verify --in FILE --out FILE [options]

Input is a JSON problem file (see README for the schema) or, with --csv, a
plain CSV whose rows become the samples/generators.  Results are written as
versioned JSON; exit codes: 0 ok, 2 input error, 3 resource cap exceeded,
4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .cone import GeneratorSet, decompose
from .design import (
    MetricSpace,
    Objective,
    Restriction,
    ScoreDesign,
    design_both,
    design_improvement,
    design_optimality,
)
from .errors import InputError, NotPointedError, ResourceCapError
from .linalg import Tolerances, as_matrix, numeric_rank
from .ranks import RankKind, RankResult, cone_ranks
from .verify import check_improvement, check_optimality, check_restriction

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_VERIFY = 4


@dataclass
class ProblemFile:
    metrics_samples: np.ndarray | None
    generators: np.ndarray | None
    restriction: Restriction | None
    objective: Objective | None
    tolerances: Tolerances
    assert_relint_nonempty: bool
    design_A: np.ndarray | None
    raw: dict


def load_problem(path: str, as_csv: bool = False, csv_role: str = "metrics_samples",
                 tol_overrides: dict | None = None) -> ProblemFile:
    """Parse a problem file; tolerance overrides from the CLI win over the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if as_csv:
                rows = [[float(v) for v in row] for row in csv.reader(fh) if row]
                doc = {csv_role: rows}
            else:
                doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, ValueError) as exc:
        raise InputError(f"malformed input file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("problem file must be a JSON object")

    tol_kwargs = dict(doc.get("tolerances") or {})
    tol_kwargs.update({k: v for k, v in (tol_overrides or {}).items() if v is not None})
    try:
        tol = Tolerances(**tol_kwargs)
    except TypeError as exc:
        raise InputError(f"bad tolerances: {exc}") from None

    restriction = objective = None
    if doc.get("restriction") is not None:
        try:
            restriction = Restriction(doc["restriction"])
        except ValueError:
            raise InputError(f"unknown restriction {doc['restriction']!r}") from None
    if doc.get("objective") is not None:
        try:
            objective = Objective(doc["objective"])
        except ValueError:
            raise InputError(f"unknown objective {doc['objective']!r}") from None

    design_A = None
    if isinstance(doc.get("design"), dict) and doc["design"].get("A") is not None:
        design_A = as_matrix(doc["design"]["A"], "design.A")

    return ProblemFile(
        metrics_samples=(
            as_matrix(doc["metrics_samples"], "metrics_samples")
            if doc.get("metrics_samples") is not None
            else None
        ),
        generators=(
            as_matrix(doc["generators"], "generators")
            if doc.get("generators") is not None
            else None
        ),
        restriction=restriction,
        objective=objective,
        tolerances=tol,
        assert_relint_nonempty=bool(doc.get("assert_relint_nonempty", False)),
        design_A=design_A,
        raw=doc,
    )


def _mat(M: np.ndarray) -> list:
    return [[float(v) for v in row] for row in np.atleast_2d(M)]


def _rank_payload(res: RankResult) -> dict:
    return {
        "value": res.value,
        "witness": _mat(res.witness.generators) if res.witness.m else [],
        "subset_indices": list(res.subset_indices) if res.subset_indices is not None else None,
        "relation": res.relation,
    }


def _report_payload(rep) -> dict:
    return {
        "check": rep.check_name,
        "passed": rep.passed,
        "checked_pairs": rep.checked_pairs,
        "violations": [list(v) for v in rep.violations[:50]],
    }


def _write_result(out_path: str, command: str, payload: dict, tol: Tolerances,
                  warnings: list[str], reproducible: bool) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": "conescore",
        "version": __version__,
        "command": command,
        "tolerances": {
            "rank_tol": tol.rank_tol,
            "feas_tol": tol.feas_tol,
            "cone_tol": tol.cone_tol,
        },
        "warnings": warnings,
    }
    if not reproducible:
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    doc.update(payload)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _need_generators(p: ProblemFile) -> GeneratorSet:
    if p.generators is None:
        raise InputError("problem file must provide generators")
    return GeneratorSet.from_rows(p.generators)


def cmd_decompose(in_path: str, out_path: str, *, csv_input: bool = False,
                  tol_overrides: dict | None = None, reproducible: bool = False) -> int:
    p = load_problem(in_path, csv_input, "generators", tol_overrides)
    W = _need_generators(p)
    dec = decompose(W, p.tolerances)
    warnings = []
    if W.dropped_zero_rows:
        warnings.append(f"dropped {W.dropped_zero_rows} zero generator row(s)")
    _write_result(out_path, "decompose", {
        "decomposition": {
            "ell": dec.ell,
            "lineality_basis_columns": _mat(dec.lineality_basis.T) if dec.ell else [],
            "lineal_generator_indices": list(dec.inside_rows),
            "pointed_generator_indices": list(dec.outside_rows),
            "pointed_generators": _mat(dec.pointed_generators.generators)
            if dec.pointed_generators.m else [],
            "pointed_count": dec.pointed_generators.m,
        },
    }, p.tolerances, warnings, reproducible)
    return EXIT_OK


def cmd_rank(in_path: str, out_path: str, *, kind: str = "all", csv_input: bool = False,
             tol_overrides: dict | None = None, reproducible: bool = False,
             max_lineality_dim: int = 6) -> int:
    p = load_problem(in_path, csv_input, "generators", tol_overrides)
    W = _need_generators(p)
    tol = p.tolerances
    kinds = tuple(RankKind) if kind == "all" else (RankKind(kind),)
    results = cone_ranks(W, tol, max_lineality_dim, kinds)
    ranks = {k.value: _rank_payload(res) for k, res in results.items()}
    payload: dict = {"ranks": ranks, "m": W.m}
    if kind == "all":
        r = numeric_rank(W.generators, tol)
        chain = (
            W.m >= ranks["csr"]["value"] >= ranks["cgr"]["value"] >= ranks["cr"]["value"] >= r
        )
        payload["numeric_rank"] = r
        payload["chain_ok"] = bool(chain)
    warnings = []
    if W.dropped_zero_rows:
        warnings.append(f"dropped {W.dropped_zero_rows} zero generator row(s)")
    _write_result(out_path, "rank", payload, tol, warnings, reproducible)
    return EXIT_OK


def cmd_design(in_path: str, out_path: str, *, objective: str | None = None,
               restriction: str | None = None, csv_input: bool = False,
               tol_overrides: dict | None = None, reproducible: bool = False,
               max_lineality_dim: int = 6) -> int:
    p = load_problem(in_path, csv_input, "metrics_samples", tol_overrides)
    if p.metrics_samples is None:
        raise InputError("problem file must provide metrics_samples")
    obj = Objective(objective) if objective else (p.objective or Objective.IMPROVEMENT)
    res = Restriction(restriction) if restriction else (p.restriction or Restriction.RES_L)
    tol = p.tolerances
    space = MetricSpace.from_samples(p.metrics_samples, p.assert_relint_nonempty, tol)

    if obj is Objective.IMPROVEMENT:
        design = design_improvement(space, res, tol, max_lineality_dim)
    elif obj is Objective.OPTIMALITY:
        design = design_optimality(space, res, tol)
    else:
        design = design_both(space, res, tol, max_lineality_dim)

    reports = []
    if obj in (Objective.IMPROVEMENT, Objective.BOTH):
        reports.append(check_improvement(design, space.samples, tol))
    if obj in (Objective.OPTIMALITY, Objective.BOTH):
        reports.append(check_optimality(design, space.samples, tol))
    reports.append(check_restriction(design, space.hull, tol))

    _write_result(out_path, "design", {
        "design": {
            "k": design.k,
            "A": _mat(design.A) if design.k else [],
            "V": _mat(design.V) if design.k else [],
            "restriction": design.restriction.value,
            "objective": design.objective.value,
            "minimality_certified": design.minimality_certified,
        },
        "verification": [_report_payload(r) for r in reports],
    }, tol, list(design.warnings), reproducible)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY


def cmd_verify(in_path: str, out_path: str, *, tol_overrides: dict | None = None,
               reproducible: bool = False) -> int:
    p = load_problem(in_path, False, "metrics_samples", tol_overrides)
    if p.metrics_samples is None or p.design_A is None:
        raise InputError("verify needs metrics_samples and a design block with A")
    tol = p.tolerances
    space = MetricSpace.from_samples(p.metrics_samples, p.assert_relint_nonempty, tol)
    A = p.design_A
    if A.shape[1] != space.dim:
        raise InputError(
            f"design A has {A.shape[1]} columns, samples have dim {space.dim}"
        )
    declared_res = p.restriction or Restriction.RES_L
    design = ScoreDesign(
        A=A, k=A.shape[0], restriction=declared_res,
        objective=p.objective or Objective.BOTH, V=A @ space.hull.basis,
        rank_used=None, minimality_certified=False,
    )
    imp = check_improvement(design, space.samples, tol)
    opt = check_optimality(design, space.samples, tol)
    reports = [imp, opt]
    declared = [imp, opt]
    if p.objective is Objective.IMPROVEMENT:
        declared = [imp]
    elif p.objective is Objective.OPTIMALITY:
        declared = [opt]
    if p.restriction is not None:
        rep = check_restriction(design, space.hull, tol)
        reports.append(rep)
        declared.append(rep)

    _write_result(out_path, "verify", {
        "verification": [_report_payload(r) for r in reports],
        "declared_passed": all(r.passed for r in declared),
    }, tol, [], reproducible)
    return EXIT_OK if all(r.passed for r in declared) else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="conescore", description=__doc__)
    ap.add_argument("command", choices=["decompose", "rank", "design", "verify"])
    ap.add_argument("--in", dest="in_path", required=True, metavar="FILE")
    ap.add_argument("--out", dest="out_path", required=True, metavar="FILE")
    ap.add_argument("--kind", choices=["csr", "cgr", "cr", "all"], default="all")
    ap.add_argument("--objective", choices=[o.value for o in Objective])
    ap.add_argument("--restriction", choices=[r.value for r in Restriction])
    ap.add_argument("--tol-rank", type=float, dest="rank_tol")
    ap.add_argument("--tol-feas", type=float, dest="feas_tol")
    ap.add_argument("--tol-cone", type=float, dest="cone_tol")
    ap.add_argument("--max-lineality-dim", type=int, default=6)
    ap.add_argument("--csv", action="store_true", help="input file is CSV rows")
    ap.add_argument("--reproducible", action="store_true",
                    help="omit the timestamp for byte-identical outputs")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    tol_overrides = {
        "rank_tol": args.rank_tol,
        "feas_tol": args.feas_tol,
        "cone_tol": args.cone_tol,
    }
    try:
        if args.command == "decompose":
            return cmd_decompose(args.in_path, args.out_path, csv_input=args.csv,
                                 tol_overrides=tol_overrides,
                                 reproducible=args.reproducible)
        if args.command == "rank":
            return cmd_rank(args.in_path, args.out_path, kind=args.kind,
                            csv_input=args.csv, tol_overrides=tol_overrides,
                            reproducible=args.reproducible,
                            max_lineality_dim=args.max_lineality_dim)
        if args.command == "design":
            return cmd_design(args.in_path, args.out_path, objective=args.objective,
                              restriction=args.restriction, csv_input=args.csv,
                              tol_overrides=tol_overrides,
                              reproducible=args.reproducible,
                              max_lineality_dim=args.max_lineality_dim)
        if args.command == "verify":
            if args.csv:
                raise InputError("verify needs a JSON problem file (design block)")
            return cmd_verify(args.in_path, args.out_path,
                              tol_overrides=tol_overrides,
                              reproducible=args.reproducible)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InputError, NotPointedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
