"""Command-line front-end.

Exit codes: 0 success, 2 invalid input (schema or precondition, or a file
that cannot be read as UTF-8 text or written), 3 success with uncertain
samples, 4 internal numerical failure (for report also samples that failed
to evaluate, after the report is printed).  Machine output goes to the
chosen path (default stdout); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import catalog
from .clink import (
    load_link,
    load_slope,
    mirror,
    save_link,
    save_slope,
)
from .errors import InvalidInput, LinksigError, NotDivisible
from .hermitian import DEFAULT_TAU, MAX_TAU
from .invariants import hosokawa, hosokawa_normalized, slope
from .laurent import format_poly, parse_poly
from .sampler import (
    concordance_report,
    grid,
    records_to_csv,
    records_to_json,
    records_to_ppm,
    sweep,
)
from .strata import DEFAULT_TAU_POLY, classify, load_presentation, save_presentation, strata_to_csv
from .torus import TorusPoint, lattice

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNCERTAIN = 3
EXIT_NUMERICAL = 4


def _write_output(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("tolerances must be positive and finite")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="linksig",
                                     description="link signature and nullity maps on the torus")
    parser.add_argument("--tau", type=_positive_float, default=DEFAULT_TAU,
                        help=f"relative tolerance for inertia and solving, at most {MAX_TAU:g}")
    parser.add_argument("--tau-poly", type=_positive_float, default=DEFAULT_TAU_POLY,
                        help="relative tolerance for polynomial vanishing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigmap", help="sample signature/nullity over a grid")
    p.add_argument("link", help="link JSON file")
    p.add_argument("--grid", type=int, required=True, metavar="N")
    p.add_argument("--faces", action="store_true", help="include grid points with coordinates equal to 1")
    p.add_argument("--slope", help="slope JSON file enabling face evaluation")
    p.add_argument("--format", choices=("csv", "json", "ppm"), default="csv")
    p.add_argument("--out", default="-")

    p = sub.add_parser("slope", help="evaluate the slope at one point")
    p.add_argument("slope", help="slope JSON file")
    p.add_argument("--omega", required=True, help="comma-separated turns, e.g. 1/4,1/4")

    p = sub.add_parser("hosokawa", help="Hosokawa polynomial of a link")
    p.add_argument("link", help="link JSON file")
    p.add_argument("--delta", help="override the Alexander polynomial")
    p.add_argument("--conway", help="override the Conway potential (half-step grammar)")
    p.add_argument("--normalized", action="store_true", help="use the Conway potential")

    p = sub.add_parser("ideals", help="stratum classification from a presentation")
    p.add_argument("presentation", help="presentation JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--omega", help="comma-separated turns of one sample")
    group.add_argument("--classify", action="store_true", help="classify a whole grid")
    p.add_argument("--grid", type=int, default=8, metavar="N")
    p.add_argument("--out", default="-")

    p = sub.add_parser("report", help="concordance obstruction report")
    p.add_argument("link", help="link JSON file")
    p.add_argument("--slope", help="slope JSON file enabling face evaluation")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)

    p = sub.add_parser("mirror", help="write the mirror image of a link")
    p.add_argument("link", help="link JSON file")
    p.add_argument("--out", required=True)

    p = sub.add_parser("catalog", help="built-in examples")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("key", nargs="?")
    p.add_argument("--export", metavar="DIR", help="write file-schema exports of the entry")

    return parser


def _cmd_sigmap(args) -> int:
    link = load_link(args.link)
    slope_data = load_slope(args.slope) if args.slope else None
    if args.format == "ppm" and link.mu != 2:
        raise InvalidInput("ppm heatmaps are defined for two colors")
    points = grid(args.grid, link.mu, include_faces=args.faces)
    result = sweep(link, points, slope_data, args.tau)
    if args.format == "csv":
        text = records_to_csv(result, link.mu)
    elif args.format == "json":
        text = records_to_json(result, link.mu)
    else:
        side_len = args.grid if args.faces else args.grid - 1
        text = records_to_ppm(result, side_len, side_len)
    _write_output(text, args.out)
    return EXIT_UNCERTAIN if result.uncertain().any() else EXIT_OK


def _cmd_slope(args) -> int:
    slope_data = load_slope(args.slope)
    point = TorusPoint.from_string(args.omega)
    value = slope(slope_data, point, args.tau)
    sys.stdout.write(str(value) + "\n")
    return EXIT_OK


def _cmd_hosokawa(args) -> int:
    link = load_link(args.link)
    if args.normalized:
        conway = link.conway
        if args.conway:
            if conway is not None:
                sys.stderr.write("note: --conway overrides the polynomial embedded in the file\n")
            conway = parse_poly(args.conway, mu=link.mu, half_step=True)
        if conway is None:
            raise InvalidInput("no Conway potential available; pass --conway")
        result = hosokawa_normalized(conway, link)
    else:
        delta = link.alexander
        if args.delta:
            if delta is not None:
                sys.stderr.write("note: --delta overrides the polynomial embedded in the file\n")
            delta = parse_poly(args.delta, mu=link.mu)
        if delta is None:
            raise InvalidInput("no Alexander polynomial available; pass --delta")
        result = hosokawa(delta, link)
    sys.stdout.write(format_poly(result) + "\n")
    return EXIT_OK


def _cmd_ideals(args) -> int:
    pres = load_presentation(args.presentation)
    if args.omega:
        points = [TorusPoint.from_string(args.omega)]
    elif args.grid < 2:
        raise InvalidInput("grid needs n >= 2")
    else:
        points = lattice(args.grid, pres.mu)[1:]  # every k_j/n but the base point, which comes first
    result = classify(pres, points, args.tau_poly)
    _write_output(strata_to_csv(result, pres.mu), args.out)
    return EXIT_UNCERTAIN if result.uncertain.any() else EXIT_OK


def _cmd_report(args) -> int:
    link = load_link(args.link)
    slope_data = load_slope(args.slope) if args.slope else None
    report = concordance_report(link, slope_data, args.prime, args.depth, args.tau)
    sys.stdout.write(report.verdict.upper() + "\n")
    sys.stdout.write(report.witness_lines())
    sys.stdout.write(f"samples={report.samples} uncertain={report.uncertain}\n")
    if report.errors:
        point, kind = report.first_error
        sys.stderr.write(f"numerical failure: {report.errors} of {report.samples} samples failed "
                         f"to evaluate; the first at {point}: {kind}\n")
        return EXIT_NUMERICAL
    return EXIT_UNCERTAIN if report.uncertain else EXIT_OK


def _cmd_mirror(args) -> int:
    link = load_link(args.link)
    save_link(mirror(link), args.out)
    return EXIT_OK


def _entry_summary(entry: catalog.CatalogEntry) -> str:
    lines = [f"key: {entry.key}", f"kind: {entry.kind}"]
    if entry.link is not None:
        lines.append(f"mu: {entry.link.mu}")
        lines.append(f"components: {', '.join(entry.link.component_ids())}")
        if entry.link.has_seifert():
            lines.append(f"g: {entry.link.g}")
    if entry.presentation is not None:
        lines.append(f"presentation: {entry.presentation.n_relations}x{entry.presentation.m_generators}")
    for name, exp in sorted(entry.expected.items()):
        value = format_poly(exp.value) if hasattr(exp.value, "terms") else exp.value
        lines.append(f"expected {name}: {value} [{exp.source}]")
    return "\n".join(lines) + "\n"


def _cmd_catalog(args) -> int:
    if args.action == "list":
        sys.stdout.write("\n".join(catalog.list_keys()) + "\n")
        return EXIT_OK
    if not args.key:
        raise InvalidInput("catalog show needs a key")
    entry = catalog.get(args.key)
    sys.stdout.write(_entry_summary(entry))
    if args.export:
        os.makedirs(args.export, exist_ok=True)
        safe = entry.key.replace("(", "_").replace(")", "")
        if entry.link is not None:
            save_link(entry.link, os.path.join(args.export, f"{safe}.link.json"))
        if entry.slope is not None:
            save_slope(entry.slope, os.path.join(args.export, f"{safe}.slope.json"))
        if entry.presentation is not None:
            save_presentation(entry.presentation, os.path.join(args.export, f"{safe}.presentation.json"))
    return EXIT_OK


_COMMANDS = {
    "sigmap": _cmd_sigmap,
    "slope": _cmd_slope,
    "hosokawa": _cmd_hosokawa,
    "ideals": _cmd_ideals,
    "report": _cmd_report,
    "mirror": _cmd_mirror,
    "catalog": _cmd_catalog,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.tau > MAX_TAU:
            raise InvalidInput(f"--tau {args.tau:g} is above {MAX_TAU:g}, where certified signatures can be wrong")
        return _COMMANDS[args.command](args)
    except OSError as exc:  # a missing or unreadable input, an unwritable output
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except UnicodeDecodeError as exc:
        sys.stderr.write(f"error: input is not UTF-8 text: {exc}\n")
        return EXIT_INVALID
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"error: bad JSON: {exc}\n")
        return EXIT_INVALID
    except (InvalidInput, NotDivisible) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except LinksigError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except MemoryError as exc:  # a grid or lattice whose arrays cannot be allocated
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
