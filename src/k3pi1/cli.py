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

Each subcommand handler computes its result once and returns (JSON
payload, text lines, exit code).  ``main`` alone writes stdout: the
payload as canonical JSON under ``--json`` (sorted keys, two-space
indent, rationals as "p/q" strings), else the text lines.  It alone
maps invalid input, usage errors included, to exit 1 and one `error:`
line.  Exit codes: 0 success, 1 invalid input, 2 exhausted search or
detected sweep inconsistency.

Configuration files are JSON with exactly one of:

    {"singularities": ["A1", "E8", ...]}
    {"fibration": {"fibers": [{"kodaira": "I*0", "removed": ["t1", ...]},
                              {"kodaira": "I", "n": 3}]},
     "monodromy": [[[1, 1], [0, 1]], ...]}        # optional

Monodromy entries may also be objects {"matrix": ..., "declared": "I3"};
with a fibration present, undeclared entries inherit the fiber types
and a declared label must be its fiber's type.
Matrix files are either a JSON array of arrays of integers or plain
text with one whitespace-separated row per line.  Integers in JSON must
be JSON integers; in text, ASCII digits with an optional sign.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from math import prod

from .dynkin import AdeConfig
from .kodaira import Decoration, KodairaType, fiber_data
from .lattice import IntegerGram, _inertia, _pivots, k3_gram, meyer_gate, smith_normal_form
from .orbifold import (
    EUCLIDEAN,
    HYPERBOLIC,
    OrbifoldSignature,
    classify,
    orbifold_euler_characteristic,
)
from .pi1 import MonodromyRep, coinvariant_quotient, validate_representation
from .surface import RANK_GATE_BOUND, NormalK3Input, _frac_str, analyze, trichotomy_sweep

__all__ = ["main", "entry", "InputError", "load_config"]

# `kodaira info` prints an I_n or I*_n table only up to this index: the
# table has O(n) lines, about 11 MB of JSON at the bound
KODAIRA_INFO_MAX_N = 100_000


class InputError(Exception):
    """Invalid user input; `field` names the offending part."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


@contextmanager
def _field(field: str) -> Iterator[None]:
    """Report a ValueError raised in the block as InputError(field, ...)."""
    try:
        yield
    except ValueError as exc:
        raise InputError(field, str(exc)) from exc


@contextmanager
def _exact_digits() -> Iterator[None]:
    """Lift the interpreter's int-to-str digit limit in the block, where an
    answer is formatted: input is read, and checked, before it."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7 has no limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


_ASCII_INT = re.compile(r"\s*[+-]?[0-9]+\s*")


def _integer(
    raw: object, field: str, text: bool = False, message: str = "matrix entries must be integers"
) -> int:
    """`raw` as an int, else InputError(field, message): a JSON integer (not a
    float, string or boolean) or, with `text`, ASCII digits and an optional sign."""
    if text and _ASCII_INT.fullmatch(raw):
        with _field(field):  # more digits than int() may convert
            return int(raw)
    if not text and type(raw) is int:
        return raw
    raise InputError(field, message)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(path, f"cannot read file: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(path, f"not UTF-8 text (byte {exc.start})") from exc


def _load_json_file(path: str, text: str | None = None) -> object:
    """The JSON value in file `path`, whose `text` may have been read already."""
    try:
        return json.loads(_read_file(path) if text is None else text)
    except json.JSONDecodeError as exc:
        raise InputError(path, f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # json.loads' int() refused the digit count
        raise InputError(path, "an integer has too many digits") from exc
    except RecursionError as exc:
        raise InputError(path, "JSON nested too deeply") from exc


def _parse_monodromy(raw: object, field: str, fibers: list[Decoration] | None) -> MonodromyRep:
    if not isinstance(raw, list):
        raise InputError(field, "expected a list of 2x2 matrices")
    mats = []
    declared: list[KodairaType | None] = []
    for idx, matrix in enumerate(raw):
        at = f"{field}[{idx}]"
        label = None
        if isinstance(matrix, dict):
            if "matrix" not in matrix:
                raise InputError(at, 'expected a "matrix" key')
            matrix, label = matrix["matrix"], matrix.get("declared")
        if (
            not isinstance(matrix, list)
            or len(matrix) != 2
            or any(not isinstance(row, list) or len(row) != 2 for row in matrix)
        ):
            raise InputError(at, "expected a 2x2 integer matrix")
        mats.append(tuple(tuple(_integer(x, at) for x in row) for row in matrix))
        if label is not None:
            if not isinstance(label, str):
                raise InputError(f"{at}.declared", "label must be a string")
            with _field(f"{at}.declared"):
                declared.append(KodairaType.parse(label))
            if fibers is not None and idx < len(fibers) and declared[-1] != fibers[idx].fiber:
                raise InputError(
                    f"{at}.declared",
                    f"{label} does not match fibration.fibers[{idx}] ({fibers[idx].fiber.label})",
                )
        elif fibers is not None and idx < len(fibers):
            declared.append(fibers[idx].fiber)
        else:
            declared.append(None)
    with _field(field):
        return MonodromyRep(tuple(mats), tuple(declared))


def _parse_fiber(raw: object, field: str) -> Decoration:
    if not isinstance(raw, dict) or "kodaira" not in raw:
        raise InputError(field, 'expected an object with a "kodaira" label')
    label = raw["kodaira"]
    if not isinstance(label, str):
        raise InputError(f"{field}.kodaira", "label must be a string")
    n = raw.get("n")
    if n is not None:
        n = _integer(n, f"{field}.n", message="must be an integer")
    with _field(f"{field}.kodaira"):
        fiber = KodairaType.parse(label) if n is None else KodairaType(label, n)
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
        with _field("singularities"):
            config = AdeConfig.from_labels(labels)
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
    text = _read_file(path)
    if text.lstrip().startswith("["):
        raw = _load_json_file(path, text)
        if not isinstance(raw, list) or any(not isinstance(r, list) for r in raw):
            raise InputError(path, "expected an array of arrays of integers")
        return [[_integer(x, path) for x in row] for row in raw]
    rows = [
        [_integer(tok, f"{path}:{lineno}", text=True) for tok in line.split()]
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    if not rows:
        raise InputError(path, "empty matrix file")
    return rows


# ----------------------------------------------------------------------
# subcommands


def _cmd_analyze(args) -> tuple[dict, list[str], int]:
    report = analyze(load_config(args.file))
    with _exact_digits():
        lines = [
            f"input: {report.kind}",
            f"r = {report.r}",
            f"e_orb = {report.e_orb}",
            f"singularities: {', '.join(report.config.labels) or '(none)'}",
        ]
        if report.fibers is not None:
            for f in report.fibers:
                removed = ", ".join(sorted(f.decoration.removed)) or "-"
                lines.append(
                    f"fiber {f.decoration.fiber.label}: removed [{removed}] "
                    f"m = {f.m} config [{', '.join(f.removed_config.labels) or '-'}]"
                )
            lines.append(f"cone orders: {list(report.cone_orders)}")
            lines.append(f"classification: {_class_name(report.classification)}")
        gate = "passes" if report.rank_gate_passes else "fails"
        lines.append(f"rank gate (r <= {RANK_GATE_BOUND}): {gate}")
        if report.monodromy_quotient is not None:
            note = "" if report.monodromy_quotient_trivial else " (expected trivial)"
            lines.append(f"monodromy quotient: {report.monodromy_quotient}{note}")
        lines.append(f"verdict: {report.verdict.kind if report.verdict else 'undetermined'}")
        return report.to_json_dict(), lines, 0


def _cmd_euler(args) -> tuple[dict, list[str], int]:
    report = analyze(load_config(args.file))
    with _exact_digits():
        full = report.to_json_dict()
        payload = {key: full[key] for key in ("r", "e_orb", "singularities")}
        return payload, [f"r = {report.r}", f"e_orb = {report.e_orb}"], 0


def _class_name(cls) -> str:
    names = {EUCLIDEAN: "Euclidean", HYPERBOLIC: "Hyperbolic"}
    return names.get(cls.kind, f"SphericalOrBad({cls.order})")


def _cmd_orbifold(args) -> tuple[dict, list[str], int]:
    with _field("--signature"):
        sig = OrbifoldSignature.parse(args.signature)
    for token in filter(str.strip, args.signature.split(",")):
        _integer(token, "--signature", text=True, message="expected ASCII digits")
    chi = orbifold_euler_characteristic(sig)
    cls = classify(sig)
    with _exact_digits():
        payload = {
            "cone_orders": list(sig.cone_orders),
            "chi": _frac_str(chi),
            "classification": cls.kind,
            "order": cls.order,
        }
        return payload, [f"{_class_name(cls)}, chi = {_frac_str(chi)}"], 0


def _cmd_lattice_snf(args) -> tuple[dict, list[str], int]:
    res = smith_normal_form(_load_matrix_file(args.matrixfile))
    payload = {
        "diagonal": list(res.diagonal),
        "u": [list(r) for r in res.u],
        "d": [list(r) for r in res.d],
        "v": [list(r) for r in res.v],
    }
    with _exact_digits():
        return payload, ["diagonal: " + " ".join(str(x) for x in res.diagonal)], 0


def _cmd_lattice_isotropic(args) -> tuple[dict, list[str], int]:
    with _field(args.matrixfile):
        gram = IntegerGram.from_rows(_load_matrix_file(args.matrixfile))
    if args.bound < 1:
        raise InputError("--bound", "must be a positive integer")
    report = meyer_gate(gram, args.bound)
    payload = {
        "signature": list(report.signature),
        "bound": report.bound,
        "vector": list(report.vector) if report.vector else None,
        "hypotheses_hold": report.hypotheses_hold,
        "hypotheses_hold_but_exhausted": report.hypotheses_hold_but_exhausted,
    }
    pos, neg, null = report.signature
    hyp = "hold" if report.hypotheses_hold else "fail"
    lines = [f"signature ({pos},{neg},{null}), Meyer hypotheses {hyp}"]
    if report.vector is not None:
        lines.append(f"isotropic vector: ({', '.join(str(c) for c in report.vector)})")
        return payload, lines, 0
    lines.append(
        f"exhausted: no isotropic vector with coordinates in [-{args.bound}, {args.bound}]"
    )
    if report.hypotheses_hold_but_exhausted:
        lines.append("warning: hypotheses hold, increase the bound")
    return payload, lines, 2


def _cmd_lattice_k3(args) -> tuple[dict, list[str], int]:
    gram = k3_gram()
    # every step of the congruence has determinant +-1, so the pivots
    # multiply to the determinant, or it is 0 when a pivot is missing
    pivots, _ = _pivots(gram.rows)
    det = int(prod(pivots)) if len(pivots) == gram.dim else 0
    pos, neg, null = _inertia(pivots, gram.dim)
    payload = {
        "dim": gram.dim,
        "even": gram.is_even,
        "det": det,
        "signature": [pos, neg, null],
    }
    even = "even" if gram.is_even else "odd"
    return payload, [f"dim {gram.dim}, {even}, det {det}, signature ({pos},{neg})"], 0


def _cmd_kodaira_info(args) -> tuple[dict, list[str], int]:
    with _field("label"):
        fiber = KodairaType.parse(args.label)
    if fiber.n is not None and fiber.n > KODAIRA_INFO_MAX_N:
        raise InputError(
            "label", f"{fiber.label}: tables are printed up to n = {KODAIRA_INFO_MAX_N}"
        )
    data = fiber_data(fiber)
    payload = {
        "label": fiber.label,
        "euler": data.euler,
        "components": [{"id": cid, "multiplicity": m} for cid, m in data.components],
        "dual_graph": [list(edge) for edge in data.dual_graph],
        "monodromy": [list(row) for row in data.monodromy],
    }
    comps = ", ".join(f"{cid}:{m}" for cid, m in data.components)
    lines = [f"fiber {fiber.label}: euler {data.euler}", f"components: {comps}"]
    if data.dual_graph:
        edges = ", ".join(
            f"{u}-{v}" + (f" (x{w})" if w > 1 else "") for u, v, w in data.dual_graph
        )
        lines.append(f"dual graph: {edges}")
    lines.append(f"monodromy: {data.monodromy[0]} {data.monodromy[1]}")
    return payload, lines, 0


def _cmd_pi1_quotient(args) -> tuple[dict, list[str], int]:
    rep = _parse_monodromy(_load_json_file(args.repfile), args.repfile, None)
    with _field(args.repfile):
        validate_representation(rep)
    subset = None
    if args.subset is not None:
        one_based = [
            _integer(tok, "--subset", text=True, message="expected comma-separated indices")
            for tok in filter(str.strip, args.subset.split(","))
        ]
        if any(j < 1 or j > len(rep) for j in one_based):
            raise InputError("--subset", f"indices must be in 1..{len(rep)}")
        subset = [j - 1 for j in one_based]
    group = coinvariant_quotient(rep, subset)
    with _exact_digits():
        payload = {
            "invariant_factors": list(group.invariant_factors),
            "description": group.describe(),
            "order": group.order,
        }
        factors = ", ".join(str(d) for d in group.invariant_factors) or "-"
        return payload, [f"quotient: {group.describe()} (invariant factors: {factors})"], 0


def _cmd_enumerate(args) -> tuple[dict, list[str], int]:
    if args.euler_sum < 1:
        raise InputError("--euler-sum", "must be a positive integer")
    if args.max_report < 0:
        raise InputError("--max-report", "must be a non-negative integer")
    result = trichotomy_sweep(args.euler_sum, collect_limit=args.max_report)
    payload = {
        "euler_sum": args.euler_sum,
        "total": result.total,
        "counts": result.counts,
        "euclidean": [
            {
                "cone_orders": list(inst.cone_orders),
                "r": inst.r,
                "e_orb": _frac_str(inst.e_orb),
                "outcomes": [
                    {"kodaira": label, "m": m, "removed_config": list(cfg), "count": count}
                    for label, m, cfg, count in inst.outcomes
                ],
            }
            for inst in result.euclidean
        ],
        "violations": result.violations,
    }
    lines = [f"classes with euler sum <= {args.euler_sum}: {result.total}"]
    for kind in ("spherical_or_bad", "euclidean", "hyperbolic"):
        lines.append(f"  {kind}: {result.counts[kind]}")
    lines += [f"  euclidean instance: {inst.describe()}" for inst in result.euclidean]
    if not args.json:
        for v in result.violations[: args.max_report]:
            print(f"violation: {v}", file=sys.stderr)
    return payload, lines, 0 if result.consistent else 2


def _leaf(parent, name: str, help: str, func, *positionals: str, **options: dict) -> None:
    """Add subcommand `name`: positionals, options (``euler_sum=...`` is
    ``--euler-sum``), then ``--json``, which --help lists after the others."""
    p = parent.add_parser(name, help=help)
    for positional in positionals:
        p.add_argument(positional)
    for option, kwargs in options.items():
        p.add_argument("--" + option.replace("_", "-"), **kwargs)
    p.add_argument("--json", action="store_true", help="canonical JSON output")
    p.set_defaults(func=func)


class _Parser(argparse.ArgumentParser):
    """Raises a usage error instead of exiting 2; subparsers share the class."""

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="k3pi1",
        description=(
            "Exact-arithmetic finiteness trichotomy for fundamental groups "
            "of smooth loci of normal K3 surfaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _leaf(sub, "analyze", "full pipeline report for a config file", _cmd_analyze, "file")
    _leaf(sub, "euler", "rank and orbifold Euler number", _cmd_euler, "file")
    _leaf(
        sub, "orbifold", "classify a cone-order signature", _cmd_orbifold,
        signature=dict(required=True, help='e.g. "2,3,5"'),
    )

    lattice = sub.add_parser("lattice", help="integer lattice tools")
    lat_sub = lattice.add_subparsers(dest="lattice_command", required=True)
    _leaf(lat_sub, "snf", "Smith normal form of a matrix file", _cmd_lattice_snf, "matrixfile")
    _leaf(
        lat_sub, "isotropic", "bounded isotropic vector search", _cmd_lattice_isotropic,
        "matrixfile", bound=dict(type=int, required=True),
    )
    _leaf(
        lat_sub, "k3", "the rank-22 even unimodular lattice", _cmd_lattice_k3,
        info=dict(action="store_true", help="print the lattice data"),
    )

    kodaira = sub.add_parser("kodaira", help="Kodaira fiber tables")
    kod_sub = kodaira.add_subparsers(dest="kodaira_command", required=True)
    _leaf(kod_sub, "info", "table entry for one fiber type", _cmd_kodaira_info, "label")

    pi1 = sub.add_parser("pi1", help="monodromy computations")
    pi1_sub = pi1.add_subparsers(dest="pi1_command", required=True)
    _leaf(
        pi1_sub, "quotient", "Z^2 coinvariant quotient", _cmd_pi1_quotient,
        "repfile", subset=dict(help="1-based fiber indices, e.g. 1,2,3"),
    )

    _leaf(
        sub, "enumerate", "exhaustive trichotomy sweep", _cmd_enumerate,
        euler_sum=dict(type=int, default=24), max_report=dict(type=int, default=10),
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        payload, lines, code = args.func(args)
    except (InputError, ValueError, argparse.ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with _exact_digits():
        print(json.dumps(payload, sort_keys=True, indent=2) if args.json else "\n".join(lines))
    return code


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
