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
from .cone import GeneratorSet, _nonzero_rows, decompose
from .design import (
    MetricSpace,
    Objective,
    Restriction,
    ScoreDesign,
    design_score,
)
from .errors import ConescoreError, InputError, VerificationError
from .linalg import Tolerances, as_matrix, numeric_rank
from .ranks import RankKind, RankResult, cone_ranks
from .verify import check_improvement, check_optimality, check_restriction

SCHEMA_VERSION = 1


@dataclass
class ProblemFile:
    metrics_samples: np.ndarray | None
    generators: np.ndarray | None
    restriction: Restriction | None
    objective: Objective | None
    tolerances: Tolerances
    assert_relint_nonempty: bool
    design_A: np.ndarray | None


def _choice(doc: dict, key: str, enum):
    value = doc.get(key)
    if value is None:
        return None
    try:
        return enum(value)
    except ValueError:
        raise InputError(f"unknown {key} {value!r}") from None


def _flag(doc: dict, key: str) -> bool:
    value = doc.get(key)
    if value is not None and not isinstance(value, bool):
        raise InputError(f"bad {key}: expected true or false, got {value!r}")
    return bool(value)


def _matrix(doc: dict, key: str, name: str):
    value = doc.get(key)
    return None if value is None else as_matrix(value, name)


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
    except (json.JSONDecodeError, ValueError, RecursionError) as exc:
        raise InputError(f"malformed input file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("problem file must be a JSON object")

    file_tol = doc.get("tolerances") or {}
    if not isinstance(file_tol, dict):
        raise InputError(f"bad tolerances: expected a JSON object, got {file_tol!r}")
    overrides = {k: v for k, v in (tol_overrides or {}).items() if v is not None}
    try:
        tol = Tolerances(**{**file_tol, **overrides})
    except TypeError as exc:
        raise InputError(f"bad tolerances: {exc}") from None

    design = doc["design"] if isinstance(doc.get("design"), dict) else {}
    # keyword arguments are evaluated in order, so this is the order of the checks
    return ProblemFile(
        tolerances=tol,
        restriction=_choice(doc, "restriction", Restriction),
        objective=_choice(doc, "objective", Objective),
        design_A=_matrix(design, "A", "design.A"),
        metrics_samples=_matrix(doc, "metrics_samples", "metrics_samples"),
        generators=_matrix(doc, "generators", "generators"),
        assert_relint_nonempty=_flag(doc, "assert_relint_nonempty"),
    )


def _mat(M: np.ndarray) -> list:
    return np.atleast_2d(M).tolist()


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


def _verdict(reports) -> int:
    return 0 if all(r.passed for r in reports) else VerificationError.exit_code


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
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {out_path}: {exc}") from None


def _generators(p: ProblemFile) -> tuple[GeneratorSet, np.ndarray, list[str]]:
    """The problem's generator set, the mask of its rows that do not count as
    zero (max|w| > cone_tol, as for ``decompose``) and the warning for the
    rows that do."""
    if p.generators is None:
        raise InputError("problem file must provide generators")
    W = GeneratorSet.from_rows(p.generators)
    nonzero = _nonzero_rows(W.generators, p.tolerances)
    dropped = W.m - int(np.count_nonzero(nonzero))
    return W, nonzero, [f"dropped {dropped} zero generator row(s)"] if dropped else []


def _decompose(p: ProblemFile, args: argparse.Namespace) -> tuple[dict, list[str], int]:
    W, _, warnings = _generators(p)
    dec = decompose(W, p.tolerances)
    return {
        "decomposition": {
            "ell": dec.ell,
            "lineality_basis_columns": _mat(dec.lineality_basis.T) if dec.ell else [],
            "lineal_generator_indices": list(dec.inside_rows),
            "pointed_generator_indices": list(dec.outside_rows),
            "pointed_generators": _mat(dec.pointed_generators.generators)
            if dec.pointed_generators.m else [],
            "pointed_count": dec.pointed_generators.m,
        },
    }, warnings, 0


def _rank(p: ProblemFile, args: argparse.Namespace) -> tuple[dict, list[str], int]:
    W, nonzero, warnings = _generators(p)
    tol = p.tolerances
    kind = args.kind or "all"
    kinds = tuple(RankKind) if kind == "all" else (RankKind(kind),)
    results = cone_ranks(W, tol, args.max_lineality_dim, kinds)
    ranks = {k.value: _rank_payload(res) for k, res in results.items()}
    m = int(np.count_nonzero(nonzero))
    payload: dict = {"ranks": ranks, "m": m}
    if kind == "all":
        r = numeric_rank(W.generators[nonzero], tol)
        chain = (m, ranks["csr"]["value"], ranks["cgr"]["value"], ranks["cr"]["value"], r)
        # a theorem, so a break means a rank is wrong
        if any(a < b for a, b in zip(chain, chain[1:])):
            raise VerificationError(
                "rank chain m >= CSR >= CGR >= CR >= rank fails: "
                + " >= ".join(map(str, chain)))
        payload["numeric_rank"] = r
        payload["chain_ok"] = True
    return payload, warnings, 0


def _design(p: ProblemFile, args: argparse.Namespace) -> tuple[dict, list[str], int]:
    if p.metrics_samples is None:
        raise InputError("problem file must provide metrics_samples")
    obj = Objective(args.objective or p.objective or Objective.IMPROVEMENT)
    res = Restriction(args.restriction or p.restriction or Restriction.RES_L)
    tol = p.tolerances
    space = MetricSpace.from_samples(p.metrics_samples, p.assert_relint_nonempty, tol)
    design = design_score(space, obj, res, tol, args.max_lineality_dim)

    reports = []
    if obj in (Objective.IMPROVEMENT, Objective.BOTH):
        reports.append(check_improvement(design, space.samples, tol))
    if obj in (Objective.OPTIMALITY, Objective.BOTH):
        reports.append(check_optimality(design, space.samples, tol))
    reports.append(check_restriction(design, space.hull, tol))

    return {
        "design": {
            "k": design.k,
            "A": _mat(design.A) if design.k else [],
            "V": _mat(design.V) if design.k else [],
            "restriction": design.restriction.value,
            "objective": design.objective.value,
            "minimality_certified": design.minimality_certified,
        },
        "verification": [_report_payload(r) for r in reports],
    }, list(design.warnings), _verdict(reports)


def _verify(p: ProblemFile, args: argparse.Namespace) -> tuple[dict, list[str], int]:
    if p.metrics_samples is None or p.design_A is None:
        raise InputError("verify needs metrics_samples and a design block with A")
    tol = p.tolerances
    space = MetricSpace.from_samples(p.metrics_samples, p.assert_relint_nonempty, tol)
    A = p.design_A
    if A.shape[1] != space.dim:
        raise InputError(
            f"design A has {A.shape[1]} columns, samples have dim {space.dim}"
        )
    # CLI flags win over the file, as for design
    obj = Objective(args.objective or p.objective or Objective.BOTH)
    declared_res = args.restriction or p.restriction
    design = ScoreDesign(
        A=A, restriction=Restriction(declared_res or Restriction.RES_L),
        objective=obj, V=A @ space.hull.basis,
        rank_used=None, minimality_certified=False,
    )
    imp = check_improvement(design, space.samples, tol)
    opt = check_optimality(design, space.samples, tol)
    reports = [imp, opt]
    declared = [imp, opt]
    if obj is Objective.IMPROVEMENT:
        declared = [imp]
    elif obj is Objective.OPTIMALITY:
        declared = [opt]
    if declared_res is not None:
        rep = check_restriction(design, space.hull, tol)
        reports.append(rep)
        declared.append(rep)

    return {
        "verification": [_report_payload(r) for r in reports],
        "declared_passed": all(r.passed for r in declared),
    }, [], _verdict(declared)


# command -> (runner, role of the rows of a --csv input; None: JSON only)
_COMMANDS = {
    "decompose": (_decompose, "generators"),
    "rank": (_rank, "generators"),
    "design": (_design, "metrics_samples"),
    "verify": (_verify, None),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="conescore", description=__doc__)
    ap.add_argument("command", choices=list(_COMMANDS))
    ap.add_argument("--in", dest="in_path", required=True, metavar="FILE")
    ap.add_argument("--out", dest="out_path", required=True, metavar="FILE")
    ap.add_argument("--kind", choices=["csr", "cgr", "cr", "all"],
                    help="rank only; default all")
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


# built once: parse_args leaves the parser as it was
_PARSER = build_parser()


def main(argv=None) -> int:
    """Load, run and write one command; a ConescoreError becomes one
    ``error:`` line on stderr and the exit code its class carries."""
    args = _PARSER.parse_args(argv)
    run, csv_role = _COMMANDS[args.command]
    tol_overrides = {name: getattr(args, name) for name in ("rank_tol", "feas_tol", "cone_tol")}
    try:
        if args.kind is not None and args.command != "rank":
            raise InputError(f"--kind applies to rank only, not {args.command}")
        if args.max_lineality_dim < 0:
            raise InputError(f"--max-lineality-dim must be >= 0, got {args.max_lineality_dim}")
        if args.csv and csv_role is None:
            raise InputError("verify needs a JSON problem file (design block)")
        p = load_problem(args.in_path, args.csv, csv_role, tol_overrides)
        payload, warnings, code = run(p, args)
        _write_result(args.out_path, args.command, payload, p.tolerances, warnings,
                      args.reproducible)
    except ConescoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return code


if __name__ == "__main__":
    raise SystemExit(main())
