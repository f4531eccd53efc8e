"""Command line front end.

Subcommands:
  cres     print the folded root-of-unity product at a given level
  amoeba   classify a log-space grid and emit per-point verdicts
  semialg  print the certificate region description for one or more levels
  bench    time the fast route against the elimination baseline

Polynomials are written in the z1..zn grammar of ``amoebas.poly``, for
example "z1^3 + z1*z2 + z2^3 + 1" or "(2-1i)*z1*z2^-2 - 3/4".  The
variable count is inferred from the highest index unless -n is given.
"""

from __future__ import annotations

import argparse
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

from .bench import format_table, run_case, to_csv
from .cycres import TermBudgetError
from .gridsolver import GridSpec, approximate_amoeba, records_to_csv, records_to_jsonl
from .poly import ParseError, format_poly, max_variable_index, parse
from .render import (
    check_grid_picture,
    mask_to_pixels,
    overlay_svg,
    records_to_pixels,
    scatter_svg,
    write_ppm,
)
from .semialg import check_raster, rasterize_levels, semialg_description


class CliError(Exception):
    pass


def _read_poly_text(args):
    if args.poly is not None and args.poly_file is not None:
        raise CliError("give --poly or --poly-file, not both")
    if args.poly is not None:
        return args.poly
    if args.poly_file is not None:
        with open(args.poly_file, "r", encoding="utf-8") as fh:
            return fh.read()
    raise CliError("a polynomial is required (--poly or --poly-file)")


def _load_poly(args):
    text = _read_poly_text(args)
    if args.nvars is not None and args.nvars < 1:
        raise CliError(f"-n must be at least 1, not {args.nvars}")
    nvars = args.nvars if args.nvars is not None else max_variable_index(text)
    if nvars < 1:
        raise CliError("could not infer a variable count; pass -n")
    try:
        return parse(text, nvars)
    except ParseError as exc:
        raise CliError(f"bad polynomial: {exc}") from None


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _levels(text):
    try:
        out = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a level list: {text!r}")
    if not out or any(k < 0 for k in out):
        raise argparse.ArgumentTypeError("levels must be nonnegative integers")
    return out


def _add_poly_args(sub):
    sub.add_argument("-f", "--poly", help="polynomial expression")
    sub.add_argument("--poly-file", help="file containing the expression")
    sub.add_argument("-n", "--nvars", type=int, help="variable count (default: inferred)")


@contextmanager
def _output(args, binary=False):
    """The -o stream: stdout, left open, or the named file, closed after."""
    if args.out is None or args.out == "-":
        yield sys.stdout.buffer if binary else sys.stdout
        return
    if binary:
        stream = open(args.out, "wb")
    else:
        stream = open(args.out, "w", encoding="utf-8", newline="")
    with stream:
        yield stream


def _cmd_cres(args):
    f = _load_poly(args)
    from .cycres import quick_cyclic_resultant

    g = quick_cyclic_resultant(f, args.level)
    with _output(args) as stream:
        stream.write(format_poly(g) + "\n")
    return 0


def _cmd_amoeba(args):
    f = _load_poly(args)
    spec = GridSpec(*args.box, args.step, f.nvars)
    if args.format in ("svg", "ppm"):
        check_grid_picture(spec.nvars)
    try:
        eps = None if args.eps is None else float(args.eps)
    except OverflowError:
        raise CliError("--eps is too large for a float") from None
    records = approximate_amoeba(f, spec, kmax=args.kmax, eps=eps)
    if args.format == "ppm":
        with _output(args, binary=True) as stream:
            write_ppm(stream, records_to_pixels(records))
        return 0
    with _output(args) as stream:
        if args.format == "csv":
            records_to_csv(records, stream)
        elif args.format == "svg":
            stream.write(scatter_svg(records))
        else:
            records_to_jsonl(records, stream)
    return 0


def _cmd_semialg(args):
    f = _load_poly(args)
    if args.format == "ppm" and len(args.level) != 1:
        raise CliError("ppm output draws exactly one level")
    if args.format in ("svg", "ppm"):
        check_raster(f.nvars, *args.box, args.res)
    systems = [semialg_description(f, level) for level in args.level]
    if args.format == "ppm":
        raster = systems[0].rasterize(*args.box, args.res)
        with _output(args, binary=True) as stream:
            write_ppm(stream, mask_to_pixels(raster.mask))
        return 0
    if args.format == "svg":
        rasters = rasterize_levels(systems, *args.box, args.res)
        layers = [(f"level {system.level}", raster.mask, None) for system, raster in zip(systems, rasters)]
        text = overlay_svg(layers, *args.box)
    elif args.format == "json":
        blocks = [system.to_json() for system in systems]
        text = "[\n" + ",\n".join(blocks) + "\n]" if len(blocks) > 1 else blocks[0]
    else:
        text = "\n\n".join(system.pretty() for system in systems)
    with _output(args) as stream:
        stream.write(text + "\n")
    return 0


def _cmd_bench(args):
    cases = []
    for spec in args.case:
        name, _, expr = spec.partition("=")
        if not expr:
            name, expr = f"p{len(cases)+1}", name
        nvars = max_variable_index(expr)
        if nvars < 1:
            raise CliError(f"could not infer variables for {expr!r}")
        try:
            f = parse(expr, nvars)
        except ParseError as exc:
            raise CliError(f"bad polynomial {name}: {exc}") from None
        for level in args.level:
            cases.append((name, f, level))
    results = [
        run_case(name, f, level, runs=args.runs, baseline=not args.no_baseline, timeout=args.timeout)
        for name, f, level in cases
    ]
    with _output(args) as stream:
        if args.format == "csv":
            to_csv(results, stream)
        else:
            stream.write(format_table(results) + "\n")
    return 0 if all(r.error is None for r in results) else 1


# argparse takes only -2 and -0.5 for negative numbers; a box may start
# at a negative fraction such as -1/2, and a semialg box is then refused
# with the reason the library gives
_NEGATIVE_NUMBER = re.compile(r"^-(\d+(/\d+)?|\d*\.\d+)$")


def build_parser():
    top = argparse.ArgumentParser(prog="amoeba", description=__doc__.strip().splitlines()[0])
    subs = top.add_subparsers(dest="command", required=True)

    p = subs.add_parser("cres", help="folded root-of-unity product")
    _add_poly_args(p)
    p.add_argument("-k", "--level", type=int, default=1, help="folding level (default 1)")
    p.add_argument("-o", "--out", help="output file (default stdout)")
    p.set_defaults(fn=_cmd_cres)

    p = subs.add_parser("amoeba", help="classify a log-space grid")
    p._negative_number_matcher = _NEGATIVE_NUMBER
    _add_poly_args(p)
    p.add_argument("--box", nargs=2, type=_fraction, metavar=("LO", "HI"), default=(Fraction(-2), Fraction(2)))
    p.add_argument("--step", type=_fraction, default=Fraction(1, 20))
    p.add_argument("--kmax", type=int, default=None, help="deepest folding level")
    p.add_argument("--eps", type=_fraction, default=None, help="target distance; picks the level")
    p.add_argument("--format", choices=("csv", "jsonl", "svg", "ppm"), default="csv")
    p.add_argument("-o", "--out", help="output file (default stdout)")
    p.set_defaults(fn=_cmd_amoeba)

    p = subs.add_parser("semialg", help="certificate region description")
    p._negative_number_matcher = _NEGATIVE_NUMBER
    _add_poly_args(p)
    p.add_argument("-k", "--level", type=_levels, default=[1], help="level or comma list")
    p.add_argument("--format", choices=("json", "text", "svg", "ppm"), default="json")
    p.add_argument(
        "--box",
        nargs=2,
        type=_fraction,
        metavar=("LO", "HI"),
        default=(Fraction(1, 20), Fraction(3)),
        help="magnitude-space square for svg/ppm rasters",
    )
    p.add_argument("--res", type=int, default=512, help="raster samples per axis")
    p.add_argument("-o", "--out", help="output file (default stdout)")
    p.set_defaults(fn=_cmd_semialg)

    p = subs.add_parser("bench", help="quick route vs elimination baseline")
    p.add_argument("case", nargs="+", help="NAME=EXPR or bare EXPR, repeatable")
    p.add_argument("-k", "--level", type=_levels, default=[1, 2], help="levels, comma list")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--timeout", type=float, default=None, help="baseline budget in seconds")
    p.add_argument("--no-baseline", action="store_true")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("-o", "--out", help="output file (default stdout)")
    p.set_defaults(fn=_cmd_bench)
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, TermBudgetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
