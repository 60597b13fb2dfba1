"""Command-line front end.

Subcommands:

* ``analyze <file>``: full pipeline report for a configuration file,
* ``euler <file>``: rank and orbifold Euler number only,
* ``orbifold --signature 2,3,5``: classify a cone-order signature,
* ``lattice snf <matrixfile>``: Smith normal form,
* ``lattice isotropic <matrixfile> --bound N``: bounded isotropic search,
* ``lattice k3 --info``: the rank-22 even unimodular lattice data,
* ``kodaira info <label>``: fiber table entry,
* ``pi1 quotient <repfile> [--subset 1,2,3]``: Z^2 coinvariant quotient,
* ``enumerate [--euler-sum 24] [--max-report N]``: trichotomy sweep.

``--json`` switches any subcommand to canonical JSON (sorted keys,
two-space indent, rationals as "p/q" strings).  Exit codes: 0 success,
1 invalid input, 2 exhausted search or detected sweep inconsistency.

Configuration files are JSON with exactly one of:

    {"singularities": ["A1", "E8", ...]}
    {"fibration": {"fibers": [{"kodaira": "I*0", "removed": ["t1", ...]},
                              {"kodaira": "I", "n": 3}]},
     "monodromy": [[[1, 1], [0, 1]], ...]}        # optional

Monodromy entries may also be objects {"matrix": ..., "declared": "I3"};
with a fibration present, undeclared entries inherit the fiber types.
Matrix files are either a JSON array of arrays of integers or plain
text with one whitespace-separated row per line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Sequence

from .dynkin import AdeConfig
from .kodaira import Decoration, KodairaType, fiber_data
from .lattice import (
    IntegerGram,
    determinant,
    k3_gram,
    meyer_gate,
    signature,
    smith_normal_form,
)
from .orbifold import (
    EUCLIDEAN,
    HYPERBOLIC,
    OrbifoldSignature,
    classify,
    orbifold_euler_characteristic,
)
from .pi1 import MonodromyRep, coinvariant_quotient, validate_representation
from .surface import NormalK3Input, _frac_str, analyze, trichotomy_sweep

__all__ = ["main", "entry", "InputError", "load_config"]


class InputError(Exception):
    """Invalid user input; `field` names the offending part."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _emit_json(payload: Any) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(path, f"cannot read file: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(path, f"invalid JSON: {exc}") from exc


def _parse_matrix_entry(raw: Any, field: str) -> tuple[tuple[int, int], tuple[int, int]]:
    matrix = raw
    declared = None
    if isinstance(raw, dict):
        if "matrix" not in raw:
            raise InputError(field, 'expected a "matrix" key')
        matrix = raw["matrix"]
        declared = raw.get("declared")
    if (
        not isinstance(matrix, list)
        or len(matrix) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in matrix)
    ):
        raise InputError(field, "expected a 2x2 integer matrix")
    try:
        mat = tuple(tuple(int(x) for x in row) for row in matrix)
    except (TypeError, ValueError) as exc:
        raise InputError(field, "matrix entries must be integers") from exc
    return mat, declared


def _parse_monodromy(raw: Any, field: str, fibers: list[Decoration] | None) -> MonodromyRep:
    if not isinstance(raw, list):
        raise InputError(field, "expected a list of 2x2 matrices")
    mats = []
    declared: list[KodairaType | None] = []
    for idx, entry in enumerate(raw):
        mat, label = _parse_matrix_entry(entry, f"{field}[{idx}]")
        mats.append(mat)
        if label is not None:
            try:
                declared.append(KodairaType.parse(label))
            except ValueError as exc:
                raise InputError(f"{field}[{idx}].declared", str(exc)) from exc
        elif fibers is not None and idx < len(fibers):
            declared.append(fibers[idx].fiber)
        else:
            declared.append(None)
    try:
        return MonodromyRep(tuple(mats), tuple(declared))
    except ValueError as exc:
        raise InputError(field, str(exc)) from exc


def _parse_fiber(raw: Any, field: str) -> Decoration:
    if not isinstance(raw, dict) or "kodaira" not in raw:
        raise InputError(field, 'expected an object with a "kodaira" label')
    label = raw["kodaira"]
    if not isinstance(label, str):
        raise InputError(f"{field}.kodaira", "label must be a string")
    n = raw.get("n")
    try:
        if n is not None:
            fiber = KodairaType(label, int(n))
        else:
            fiber = KodairaType.parse(label)
    except ValueError as exc:
        raise InputError(f"{field}.kodaira", str(exc)) from exc
    removed = raw.get("removed", [])
    if not isinstance(removed, list) or any(not isinstance(c, str) for c in removed):
        raise InputError(f"{field}.removed", "expected a list of component ids")
    return Decoration(fiber, frozenset(removed))


def load_config(path: str) -> NormalK3Input:
    """Parse a configuration file into a pipeline input."""
    raw = _load_json_file(path)
    if not isinstance(raw, dict):
        raise InputError(path, "top level must be a JSON object")
    has_sing = "singularities" in raw
    has_fib = "fibration" in raw
    if has_sing == has_fib:
        raise InputError(
            path, 'provide exactly one of "singularities" or "fibration"'
        )
    unknown = set(raw) - {"singularities", "fibration", "monodromy"}
    if unknown:
        raise InputError(sorted(unknown)[0], "unknown top-level field")
    if has_sing:
        if "monodromy" in raw:
            raise InputError("monodromy", "only valid together with a fibration")
        labels = raw["singularities"]
        if not isinstance(labels, list) or any(
            not isinstance(s, str) for s in labels
        ):
            raise InputError("singularities", "expected a list of Dynkin labels")
        try:
            config = AdeConfig.from_labels(labels)
        except ValueError as exc:
            raise InputError("singularities", str(exc)) from exc
        return NormalK3Input.bare(config)
    fibration = raw["fibration"]
    if not isinstance(fibration, dict) or "fibers" not in fibration:
        raise InputError("fibration", 'expected an object with a "fibers" list')
    raw_fibers = fibration["fibers"]
    if not isinstance(raw_fibers, list) or not raw_fibers:
        raise InputError("fibration.fibers", "expected a nonempty list")
    fibers = [
        _parse_fiber(rf, f"fibration.fibers[{i}]") for i, rf in enumerate(raw_fibers)
    ]
    monodromy = None
    if "monodromy" in raw:
        monodromy = _parse_monodromy(raw["monodromy"], "monodromy", fibers)
    return NormalK3Input.fibered(fibers, monodromy)


def _load_matrix_file(path: str) -> list[list[int]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(path, f"cannot read file: {exc.strerror}") from exc
    stripped = text.lstrip()
    if stripped.startswith("["):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(path, f"invalid JSON: {exc}") from exc
        if not isinstance(raw, list) or any(not isinstance(r, list) for r in raw):
            raise InputError(path, "expected an array of arrays of integers")
        try:
            return [[int(x) for x in row] for row in raw]
        except (TypeError, ValueError) as exc:
            raise InputError(path, "matrix entries must be integers") from exc
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}", "matrix entries must be integers") from exc
    if not rows:
        raise InputError(path, "empty matrix file")
    return rows


# ----------------------------------------------------------------------
# subcommands


def _cmd_analyze(args) -> int:
    report = analyze(load_config(args.file))
    if args.json:
        _emit_json(report.to_json_dict())
        return 0
    print(f"input: {report.kind}")
    print(f"r = {report.r}")
    print(f"e_orb = {report.e_orb}")
    print(f"singularities: {', '.join(report.config.labels) or '(none)'}")
    if report.fibers is not None:
        for f in report.fibers:
            removed = ", ".join(sorted(f.decoration.removed)) or "-"
            print(
                f"fiber {f.decoration.fiber.label}: removed [{removed}] "
                f"m = {f.m} config [{', '.join(f.removed_config.labels) or '-'}]"
            )
        print(f"cone orders: {list(report.cone_orders)}")
        print(f"classification: {_class_name(report.classification)}")
    gate = "passes" if report.gate.passes else "fails"
    print(f"rank gate (r <= 15): {gate}")
    if report.monodromy_quotient is not None:
        note = "" if report.monodromy_quotient_trivial else " (expected trivial)"
        print(f"monodromy quotient: {report.monodromy_quotient}{note}")
    print(f"verdict: {report.verdict.kind if report.verdict else 'undetermined'}")
    return 0


def _cmd_euler(args) -> int:
    input_ = load_config(args.file)
    report = analyze(input_)
    if args.json:
        _emit_json(
            {
                "r": report.r,
                "e_orb": _frac_str(report.e_orb),
                "singularities": list(report.config.labels),
            }
        )
        return 0
    print(f"r = {report.r}")
    print(f"e_orb = {report.e_orb}")
    return 0


def _class_name(cls) -> str:
    if cls.kind == EUCLIDEAN:
        return "Euclidean"
    if cls.kind == HYPERBOLIC:
        return "Hyperbolic"
    return f"SphericalOrBad({cls.order})"


def _cmd_orbifold(args) -> int:
    try:
        sig = OrbifoldSignature.parse(args.signature)
    except ValueError as exc:
        raise InputError("--signature", str(exc)) from exc
    chi = orbifold_euler_characteristic(sig)
    cls = classify(sig)
    if args.json:
        _emit_json(
            {
                "cone_orders": list(sig.cone_orders),
                "chi": _frac_str(chi),
                "classification": cls.kind,
                "order": cls.order,
            }
        )
        return 0
    print(f"{_class_name(cls)}, chi = {_frac_str(chi)}")
    return 0


def _cmd_lattice_snf(args) -> int:
    mat = _load_matrix_file(args.matrixfile)
    res = smith_normal_form(mat)
    if args.json:
        _emit_json(
            {
                "diagonal": list(res.diagonal),
                "u": [list(r) for r in res.u],
                "d": [list(r) for r in res.d],
                "v": [list(r) for r in res.v],
            }
        )
        return 0
    print("diagonal:", " ".join(str(x) for x in res.diagonal))
    return 0


def _cmd_lattice_isotropic(args) -> int:
    mat = _load_matrix_file(args.matrixfile)
    try:
        gram = IntegerGram.from_rows(mat)
    except ValueError as exc:
        raise InputError(args.matrixfile, str(exc)) from exc
    if args.bound < 1:
        raise InputError("--bound", "must be a positive integer")
    report = meyer_gate(gram, args.bound)
    if args.json:
        _emit_json(
            {
                "signature": list(report.signature),
                "bound": report.bound,
                "vector": list(report.vector) if report.vector else None,
                "hypotheses_hold": report.hypotheses_hold,
                "hypotheses_hold_but_exhausted": report.hypotheses_hold_but_exhausted,
            }
        )
        return 0 if report.vector else 2
    pos, neg, null = report.signature
    hyp = "hold" if report.hypotheses_hold else "fail"
    print(f"signature ({pos},{neg},{null}), Meyer hypotheses {hyp}")
    if report.vector is not None:
        print(f"isotropic vector: ({', '.join(str(c) for c in report.vector)})")
        return 0
    print(f"exhausted: no isotropic vector with coordinates in [-{args.bound}, {args.bound}]")
    if report.hypotheses_hold_but_exhausted:
        print("warning: hypotheses hold, increase the bound")
    return 2


def _cmd_lattice_k3(args) -> int:
    gram = k3_gram()
    det = determinant(gram.rows)
    pos, neg, null = signature(gram)
    if args.json:
        _emit_json(
            {
                "dim": gram.dim,
                "even": gram.is_even,
                "det": det,
                "signature": [pos, neg, null],
            }
        )
        return 0
    even = "even" if gram.is_even else "odd"
    print(f"dim {gram.dim}, {even}, det {det}, signature ({pos},{neg})")
    return 0


def _cmd_kodaira_info(args) -> int:
    try:
        fiber = KodairaType.parse(args.label)
    except ValueError as exc:
        raise InputError("label", str(exc)) from exc
    data = fiber_data(fiber)
    if args.json:
        _emit_json(
            {
                "label": fiber.label,
                "euler": data.euler,
                "components": [
                    {"id": cid, "multiplicity": m} for cid, m in data.components
                ],
                "dual_graph": [list(edge) for edge in data.dual_graph],
                "monodromy": [list(row) for row in data.monodromy],
            }
        )
        return 0
    print(f"fiber {fiber.label}: euler {data.euler}")
    comps = ", ".join(f"{cid}:{m}" for cid, m in data.components)
    print(f"components: {comps}")
    if data.dual_graph:
        edges = ", ".join(
            f"{u}-{v}" + (f" (x{w})" if w > 1 else "") for u, v, w in data.dual_graph
        )
        print(f"dual graph: {edges}")
    print(f"monodromy: {data.monodromy[0]} {data.monodromy[1]}")
    return 0


def _cmd_pi1_quotient(args) -> int:
    raw = _load_json_file(args.repfile)
    rep = _parse_monodromy(raw, args.repfile, None)
    try:
        validate_representation(rep)
    except ValueError as exc:
        raise InputError(args.repfile, str(exc)) from exc
    subset = None
    if args.subset is not None:
        try:
            one_based = [int(tok) for tok in args.subset.split(",") if tok.strip()]
        except ValueError as exc:
            raise InputError("--subset", "expected comma-separated indices") from exc
        if any(j < 1 or j > len(rep) for j in one_based):
            raise InputError("--subset", f"indices must be in 1..{len(rep)}")
        subset = [j - 1 for j in one_based]
    group = coinvariant_quotient(rep, subset)
    if args.json:
        _emit_json(
            {
                "invariant_factors": list(group.invariant_factors),
                "description": group.describe(),
                "order": group.order,
            }
        )
        return 0
    factors = ", ".join(str(d) for d in group.invariant_factors) or "-"
    print(f"quotient: {group.describe()} (invariant factors: {factors})")
    return 0


def _cmd_enumerate(args) -> int:
    if args.euler_sum < 1:
        raise InputError("--euler-sum", "must be a positive integer")
    result = trichotomy_sweep(args.euler_sum, collect_limit=args.max_report)
    if args.json:
        _emit_json(
            {
                "euler_sum": args.euler_sum,
                "total": result.total,
                "counts": result.counts,
                "euclidean": [
                    {
                        "cone_orders": list(inst.cone_orders),
                        "r": inst.r,
                        "e_orb": _frac_str(inst.e_orb),
                        "outcomes": [
                            {
                                "kodaira": label,
                                "m": m,
                                "removed_config": list(cfg),
                                "count": count,
                            }
                            for label, m, cfg, count in inst.outcomes
                        ],
                    }
                    for inst in result.euclidean[: args.max_report]
                ],
                "violations": result.violations,
            }
        )
        return 0 if result.consistent else 2
    print(f"classes with euler sum <= {args.euler_sum}: {result.total}")
    for kind in ("spherical_or_bad", "euclidean", "hyperbolic"):
        print(f"  {kind}: {result.counts[kind]}")
    for inst in result.euclidean[: args.max_report]:
        print(f"  euclidean instance: {inst.describe()}")
    if result.violations:
        for v in result.violations[: args.max_report]:
            print(f"violation: {v}", file=sys.stderr)
        return 2
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3pi1",
        description=(
            "Exact-arithmetic finiteness trichotomy for fundamental groups "
            "of smooth loci of normal K3 surfaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="canonical JSON output")

    p = sub.add_parser("analyze", help="full pipeline report for a config file")
    p.add_argument("file")
    add_json(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("euler", help="rank and orbifold Euler number")
    p.add_argument("file")
    add_json(p)
    p.set_defaults(func=_cmd_euler)

    p = sub.add_parser("orbifold", help="classify a cone-order signature")
    p.add_argument("--signature", required=True, help='e.g. "2,3,5"')
    add_json(p)
    p.set_defaults(func=_cmd_orbifold)

    lattice = sub.add_parser("lattice", help="integer lattice tools")
    lat_sub = lattice.add_subparsers(dest="lattice_command", required=True)

    p = lat_sub.add_parser("snf", help="Smith normal form of a matrix file")
    p.add_argument("matrixfile")
    add_json(p)
    p.set_defaults(func=_cmd_lattice_snf)

    p = lat_sub.add_parser("isotropic", help="bounded isotropic vector search")
    p.add_argument("matrixfile")
    p.add_argument("--bound", type=int, required=True)
    add_json(p)
    p.set_defaults(func=_cmd_lattice_isotropic)

    p = lat_sub.add_parser("k3", help="the rank-22 even unimodular lattice")
    p.add_argument("--info", action="store_true", help="print the lattice data")
    add_json(p)
    p.set_defaults(func=_cmd_lattice_k3)

    kodaira = sub.add_parser("kodaira", help="Kodaira fiber tables")
    kod_sub = kodaira.add_subparsers(dest="kodaira_command", required=True)
    p = kod_sub.add_parser("info", help="table entry for one fiber type")
    p.add_argument("label")
    add_json(p)
    p.set_defaults(func=_cmd_kodaira_info)

    pi1 = sub.add_parser("pi1", help="monodromy computations")
    pi1_sub = pi1.add_subparsers(dest="pi1_command", required=True)
    p = pi1_sub.add_parser("quotient", help="Z^2 coinvariant quotient")
    p.add_argument("repfile")
    p.add_argument("--subset", help="1-based fiber indices, e.g. 1,2,3")
    add_json(p)
    p.set_defaults(func=_cmd_pi1_quotient)

    p = sub.add_parser("enumerate", help="exhaustive trichotomy sweep")
    p.add_argument("--euler-sum", type=int, default=24)
    p.add_argument("--max-report", type=int, default=10)
    add_json(p)
    p.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (e.g. `| head`): silence the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
