"""Command-line front end for coloured-partition systems.

Subcommands expose the package's main operations: listing presets,
verifying identities by independent engines, expanding infinite products,
enumerating systems, dilating systems, checking recurrence/functional
equations, searching colour relations, and Euler-factorizing series.

Output discipline:

* ``--format text`` (default) prints human-readable lines.
* ``--format json`` prints exactly one JSON document on standard output,
  with sorted keys, so a run is byte-reproducible given the same flags and
  seed.  Timing is deliberately omitted from JSON output for that reason.

Exit codes: 0 = verified/equal/success, 1 = a mismatch was found (the
report is still emitted), 2 = usage or engine error (message and usage on
standard error; in JSON mode the error is also emitted as a document).

The environment variable ``WWORDS_MAX_NODES`` is the enumeration budget
of every subcommand that walks partition chains, as it is for the
library.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .algebra import (
    AlgebraError,
    ProductSpec,
    TruncatedSeries,
    euler_factorize,
    product_expand,
)
from .discovery import DiscoveryError, recognize_periodic_product, search_relations
from .enumeration import EnumerationLimitError, enumerate_series, list_partitions
from .recurrence import (
    EquationSpec,
    RecurrenceError,
    builtin_equation,
    builtin_equations,
    check_equation,
)
from .systems import (
    ColouredSystem,
    DilationSpec,
    MatrixGap,
    SystemSpecError,
    build_preset,
    dilate_system,
    preset_names,
)
from .verify import (
    VerificationError,
    check_statistics,
    coefficient_table,
    format_coefficient_table,
    identity_case,
    identity_names,
    verify_identity,
)

_PACKAGE_ERRORS = (AlgebraError, DiscoveryError, EnumerationLimitError,
                   RecurrenceError, SystemSpecError, VerificationError)


class CliError(Exception):
    """A usage-level problem: bad input file, unknown name, bad flag value."""


# ---------------------------------------------------------------------------
# input resolution helpers
# ---------------------------------------------------------------------------


def _load_json_file(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc


def _from_json(cls, data: object, path: str):
    """``cls.from_json(data)``, with malformed input reported as a usage
    error that names the file, and the package's own refusals too."""
    try:
        return cls.from_json(data)
    except _PACKAGE_ERRORS as exc:
        raise CliError(f"{path}: {exc}") from exc
    except (LookupError, TypeError, AttributeError, ValueError) as exc:
        raise CliError(f"{path}: malformed {cls.__name__} JSON "
                       f"({type(exc).__name__}: {exc})") from exc


def _resolve_system(name: str) -> ColouredSystem:
    """A preset name (possibly parametrized like name(3)) or a JSON file."""
    try:
        return build_preset(name)
    except SystemSpecError as exc:
        if os.path.exists(name):
            data = _load_json_file(name)
            if not isinstance(data, dict):
                raise CliError(f"{name}: a system definition must be a JSON object")
            return _from_json(ColouredSystem, data, name)
        families = {p.removesuffix("(r)") for p in preset_names()}
        if name.split("(", 1)[0] in families:
            raise CliError(f"{name}: {exc}")
        raise CliError(
            f"unknown system {name!r}: not a preset and not a readable file "
            f"(presets: {', '.join(preset_names())})")


def _resolve_product(source: str) -> tuple[str, ProductSpec]:
    if source in identity_names():
        case = identity_case(source)
        if case.product is None:
            raise CliError(f"identity {source!r} has no product side")
        return source, case.product
    if os.path.exists(source):
        data = _load_json_file(source)
        if not isinstance(data, list):
            raise CliError(f"{source}: a product spec must be a JSON list of factors")
        return source, _from_json(ProductSpec, data, source)
    raise CliError(
        f"unknown product {source!r}: not an identity name and not a readable file")


def _resolve_equation(source: str) -> EquationSpec:
    try:
        return builtin_equation(source)
    except RecurrenceError:
        if os.path.exists(source):
            data = _load_json_file(source)
            if not isinstance(data, dict):
                raise CliError(f"{source}: an equation spec must be a JSON object")
            return _from_json(EquationSpec, data, source)
        known = ", ".join(e.name for e in builtin_equations())
        raise CliError(
            f"unknown equation {source!r}: not builtin and not a readable file "
            f"(builtin: {known})")


def _load_series(path: str) -> TruncatedSeries:
    data = _load_json_file(path)
    if isinstance(data, dict) and "series" in data and "coefficients" not in data:
        data = data["series"]  # accept a whole `expand` JSON document
    if not isinstance(data, dict) or "coefficients" not in data:
        raise CliError(
            f"{path}: expected a series object with qmax and coefficients")
    return _from_json(TruncatedSeries, data, path)


def _order(raw: str) -> int:
    """argparse type of every non-negative count: orders, caps and sizes."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _split_csv(raw: str, flag: str) -> list[str]:
    items = [p.strip() for p in raw.split(",") if p.strip()]
    if not items:
        raise CliError(f"{flag} needs a non-empty comma-separated list")
    return items


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit code, json document, text lines)
# ---------------------------------------------------------------------------


def _cmd_list_presets(args) -> tuple[int, dict, list[str]]:
    systems = preset_names()
    identities = identity_names()
    doc = {"presets": systems, "identities": identities}
    lines = ["systems:"]
    lines += [f"  {name}" for name in systems]
    lines += ["identities:"]
    lines += [f"  {name}" for name in identities]
    return 0, doc, lines


def _cmd_verify(args) -> tuple[int, dict, list[str]]:
    engines = (None if args.engines is None
               else _split_csv(args.engines, "--engines"))
    report = verify_identity(args.identity, args.qmax, args.degmax, engines)

    doc = report.to_json()
    elapsed = doc.pop("ms")  # timing varies run to run; JSON stays reproducible
    equal = report.equal

    lines = [
        f"identity: {report.identity}",
        f"qmax: {report.qmax}",
        f"degmax: {'-' if report.degmax is None else report.degmax}",
        f"engines: {', '.join(report.engines)}",
        f"equal: {'yes' if report.equal else 'no'}",
    ]
    if report.first_mismatch is not None:
        mm = report.first_mismatch
        lines.append(
            f"first mismatch: q^{mm['n']} monomial {mm['monomial']} "
            f"lhs {mm['lhs']} rhs {mm['rhs']}")
    if report.conventions:
        conv = report.conventions
        lines.append(
            f"conventions: passed {conv['passed']} failed {conv['failed']} "
            f"resolved {conv['resolved']}")
    if args.statistics:
        stats = check_statistics(args.identity, samples=args.samples,
                                 seed=args.seed)
        doc["statistics"] = stats
        equal = equal and stats["ok"]
        lines.append(
            f"statistics: {stats['statistic']} ok={'yes' if stats['ok'] else 'no'} "
            f"({stats['samples']} samples from pool {stats['pool']}, "
            f"seed {stats['seed']})")
    lines.append(f"elapsed-ms: {elapsed}")
    return (0 if equal else 1), doc, lines


def _cmd_expand(args) -> tuple[int, dict, list[str]]:
    source, spec = _resolve_product(args.product)
    f = product_expand(spec, args.qmax, args.degmax)
    rows = coefficient_table(f, args.qmax)
    doc = {
        "source": source,
        "qmax": args.qmax,
        "degmax": args.degmax,
        "product": spec.to_json(),
        "series": f.to_json(),
        "table": rows,
    }
    lines = [f"product {source} expanded to q^{args.qmax}:"]
    lines += format_coefficient_table(rows).splitlines()
    return 0, doc, lines


def _cmd_enumerate(args) -> tuple[int, dict, list[str]]:
    system = _resolve_system(args.system)
    if args.list is not None:
        parts = list_partitions(system, args.list, degmax=args.degmax)
        doc = {
            "system": system.name,
            "n": args.list,
            "count": len(parts),
            "partitions": [[str(p) for p in chain] for chain in parts],
        }
        lines = [f"{system.name}: {len(parts)} partitions of {args.list}"]
        lines += ["  " + " + ".join(str(p) for p in chain) if chain else "  (empty)"
                  for chain in parts]
        return 0, doc, lines
    f = enumerate_series(system, args.qmax, degmax=args.degmax)
    rows = coefficient_table(f, args.qmax)
    doc = {
        "system": system.name,
        "qmax": args.qmax,
        "degmax": args.degmax,
        "series": f.to_json(),
        "table": rows,
    }
    lines = [f"{system.name} enumerated to q^{args.qmax}:"]
    lines += format_coefficient_table(rows).splitlines()
    return 0, doc, lines


def _format_gap_matrix(gap: MatrixGap) -> list[str]:
    columns = sorted({c for cols in gap.rows.values() for c in cols},
                     key=lambda c: (c.removesuffix("~"), c))
    width = max(len(rk) for rk in gap.rows)
    width = max(width, *(len(c) for c in columns))
    header = " " * (width + 4) + "  ".join(f"{c:>{width}}" for c in columns)
    lines = ["gap matrix:", header]
    for rk, cols in gap.rows.items():
        cells = "  ".join(f"{cols.get(c, '-'):>{width}}" for c in columns)
        lines.append(f"  {rk:<{width}}  {cells}")
    if gap.class_modulus is not None:
        lines.append(f"  (rows keyed by colour|size mod {gap.class_modulus})")
    return lines


def _describe_system(system: ColouredSystem) -> list[str]:
    lines = [f"system: {system.name}"]
    if system.description:
        lines.append(f"  {system.description}")
    lines.append("colours:")
    for c in system.colours:
        dom = c.domain
        if dom.modulus is None:
            shape = f"size >= {dom.min_size}"
        else:
            residues = ",".join(str(r) for r in sorted(dom.residues))
            shape = f"size >= {dom.min_size}, size mod {dom.modulus} in {{{residues}}}"
        lines.append(f"  {c.label}: weight {c.weight}, {shape}")
    if system.forbidden_parts:
        banned = ", ".join(f"{s}_{c}" for s, c in sorted(system.forbidden_parts))
        lines.append(f"forbidden parts: {banned}")
    return lines + _format_gap_matrix(system.gap)


def _cmd_dilate(args) -> tuple[int, dict, list[str]]:
    system = _resolve_system(args.system)
    try:
        offsets = json.loads(args.offsets)
    except json.JSONDecodeError as exc:
        raise CliError(f"--offsets is not valid JSON: {exc}") from exc
    if (not isinstance(offsets, dict)
            or not all(isinstance(k, str) and isinstance(v, int)
                       and not isinstance(v, bool)
                       for k, v in offsets.items())):
        raise CliError('--offsets must map weight variables to integers, '
                       'e.g. \'{"a": -1, "b": 0}\'')
    spec = DilationSpec(args.modulus, var_shifts=offsets)
    dilated = dilate_system(system, spec)
    doc = {
        "system": system.name,
        "modulus": args.modulus,
        "offsets": offsets,
        "dilated": dilated.to_json(),
    }
    lines = [f"{system.name} dilated by q -> q^{args.modulus} "
             f"with shifts {json.dumps(offsets, sort_keys=True)}"]
    lines += _describe_system(dilated)
    return 0, doc, lines


def _cmd_check_eq(args) -> tuple[int, dict, list[str]]:
    spec = _resolve_equation(args.equation)
    report = check_equation(spec, kmax=args.kmax, qmax=args.qmax,
                            degmax=args.degmax)
    doc = report.to_json()
    lines = [
        f"equation: {report.name}",
        f"system: {report.system}",
        f"k range: {report.kmin}..{report.kmax}",
        f"qmax: {report.qmax}",
        f"holds: {'yes' if report.holds else 'no'}",
    ]
    for failure in report.failures[:5]:
        lines.append(f"  failure: {failure}")
    return (0 if report.holds else 1), doc, lines


def _cmd_discover(args) -> tuple[int, dict, list[str]]:
    system = _resolve_system(args.system)
    primaries = _split_csv(args.primaries, "--primaries")
    candidates = search_relations(system, primaries, args.qmax,
                                  max_exponent=args.max_exponent)
    product_like = [c for c in candidates if c.product_like]
    shown = candidates[:args.top]
    doc = {
        "system": system.name,
        "primaries": primaries,
        "qmax": args.qmax,
        "max_exponent": args.max_exponent,
        "candidates_total": len(candidates),
        "product_like_total": len(product_like),
        "candidates": [c.to_json() for c in shown],
    }
    lines = [
        f"{system.name}: {len(candidates)} substitutions searched, "
        f"{len(product_like)} product-like",
    ]
    for cand in shown:
        sub = ", ".join(f"{v} -> {mono}" for v, mono in cand.substitution) or "(none)"
        if cand.product_like:
            lines.append(f"  [period {cand.period}, "
                         f"{cand.factors_per_period} factors] {sub}")
        else:
            lines.append(f"  [not product-like] {sub}")
    return 0, doc, lines


def _factor_text(mono, n: int, e: int) -> str:
    inner = f"q^{n}" if mono.is_one() else f"{mono}*q^{n}"
    return f"(1 - {inner})^{-e}"


def _cmd_euler_factor(args) -> tuple[int, dict, list[str]]:
    f = _load_series(args.series)
    table = euler_factorize(f)
    pattern = recognize_periodic_product(f)
    doc = {
        "qmax": f.qmax,
        "factors": [
            {"monomial": mono.to_json(), "n": n, "exponent": e}
            for mono, n, e in table
        ],
        "pattern": None if pattern is None else pattern.to_json(),
    }
    lines = [f"euler factorization to q^{f.qmax} "
             f"({len(table)} factors, exponent e means (1 - c*q^n)^-e):"]
    lines += [f"  {_factor_text(mono, n, e)}" for mono, n, e in table]
    if pattern is None:
        lines.append("no periodic pattern recognized")
    else:
        lines.append(f"periodic pattern: period {pattern.period}, "
                     f"initial segment {pattern.initial}, "
                     f"{pattern.factors_per_period} factor families per period")
    return 0, doc, lines


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wwords",
        description="Exact verification of coloured-partition identities.")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (json emits exactly one document)")
    parser.add_argument("--seed", type=int, default=2026,
                        help="random seed for sampled statistic checks")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="subcommand")

    p = sub.add_parser("list-presets",
                       help="list builtin systems and identities")
    p.set_defaults(handler=_cmd_list_presets)

    p = sub.add_parser("verify", help="verify an identity by independent engines")
    p.add_argument("identity", help="identity name (see list-presets)")
    p.add_argument("--qmax", type=_order, default=None,
                   help="truncation order (default: the identity's own)")
    p.add_argument("--degmax", type=_order, default=None,
                   help="colour-degree cap (default: the identity's own)")
    p.add_argument("--engines", default=None,
                   help="comma-separated subset of enum,recurrence,product,dilation")
    p.add_argument("--statistics", action="store_true",
                   help="also check the identity's sampled part statistic")
    p.add_argument("--samples", type=_order, default=200,
                   help="sample count for --statistics (default 200)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("expand", help="expand an infinite product")
    p.add_argument("--product", required=True,
                   help="identity name or ProductSpec JSON file")
    p.add_argument("--qmax", type=_order, required=True, help="truncation order")
    p.add_argument("--degmax", type=_order, default=None, help="colour-degree cap")
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("enumerate",
                       help="enumerate a system's series or its partitions")
    p.add_argument("system", help="preset name or system JSON file")
    p.add_argument("--qmax", type=_order, default=20,
                   help="truncation order (default 20)")
    p.add_argument("--degmax", type=_order, default=None, help="colour-degree cap")
    p.add_argument("--list", type=_order, default=None, metavar="N",
                   help="list the partitions of total size N instead")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("dilate", help="dilate a system q -> q^m with shifts")
    p.add_argument("system", help="preset name or system JSON file")
    p.add_argument("--modulus", type=int, required=True, help="dilation modulus m")
    p.add_argument("--offsets", required=True,
                   help='JSON object of per-variable q-shifts, '
                        'e.g. \'{"a": -1, "b": 0}\'')
    p.set_defaults(handler=_cmd_dilate)

    p = sub.add_parser("check-eq", help="check a recurrence/functional equation")
    p.add_argument("equation", help="builtin equation name or EquationSpec JSON file")
    p.add_argument("--kmax", type=int, default=None,
                   help="largest k to check (default: the equation's own)")
    p.add_argument("--qmax", type=_order, default=40,
                   help="truncation order (default 40)")
    p.add_argument("--degmax", type=_order, default=None, help="colour-degree cap")
    p.set_defaults(handler=_cmd_check_eq)

    p = sub.add_parser("discover",
                       help="search colour substitutions that yield products")
    p.add_argument("system", help="preset name or system JSON file")
    p.add_argument("--primaries", required=True,
                   help="comma-separated primary variables, e.g. a,b")
    p.add_argument("--qmax", type=_order, required=True, help="truncation order")
    p.add_argument("--max-exponent", type=int, default=2,
                   help="largest exponent per primary in an image (default 2)")
    p.add_argument("--top", type=_order, default=10,
                   help="how many candidates to report (default 10)")
    p.set_defaults(handler=_cmd_discover)

    p = sub.add_parser("euler-factor",
                       help="euler-factorize a series file and look for periodicity")
    p.add_argument("--series", required=True,
                   help="series JSON file (qmax + coefficient list)")
    p.set_defaults(handler=_cmd_euler_factor)

    return parser


def _emit(doc: dict, lines: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already wrote usage to stderr
        return 0 if exc.code in (0, None) else 2
    try:
        try:
            code, doc, lines = args.handler(args)
        except (CliError, *_PACKAGE_ERRORS) as exc:
            code = 2
            _fail(parser, args, str(exc))
        else:
            _emit(doc, lines, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed standard output early.  Point it at devnull so
        # the interpreter's last flush cannot fail again, and keep the code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def _fail(parser: argparse.ArgumentParser, args, message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    parser.print_usage(sys.stderr)
    if getattr(args, "format", "text") == "json":
        print(json.dumps({"error": message}, indent=2, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
