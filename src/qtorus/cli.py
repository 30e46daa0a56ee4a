"""Command-line interface.

Every subcommand prints a JSON document on stdout (compact and canonical
under ``--json``, pretty otherwise); diagnostics go to stderr.  Exit codes:
0 success, 1 usage or input error, 2 inconclusive where exactness was
demanded, 3 internal anomaly (a checked statement reported violated).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import instances
from .elements import TwistedElement
from .harness import (
    CampaignConfig,
    gen_commutative,
    gen_independent,
    gen_random,
    gen_transpose_pair,
    run_campaign,
)
from .instances import InstanceFormatError
from .lattice import Sublattice
from .pairing import (
    PairingError,
    pairing_of,
    radical,
    restrict_matrix,
    tensor,
    transpose,
)
from .solver import InexactDimensionError, SolverOptions, codimension, dimension
from .valuegroup import ValueGroupError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2
EXIT_ANOMALY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _emit(doc, args) -> None:
    if getattr(args, "json", False):
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    else:
        text = json.dumps(doc, sort_keys=True, indent=2)
    print(text)


def _solver_options(args) -> SolverOptions:
    return SolverOptions(
        search_bound=args.bound,
        combo_samples=args.combo_samples,
        time_budget=args.time_budget,
    )


def _add_solver_flags(p: argparse.ArgumentParser):
    defaults = SolverOptions()
    p.add_argument(
        "--bound", type=_at_least(0), default=defaults.search_bound, help="search box half-width"
    )
    p.add_argument(
        "--combo-samples",
        type=_at_least(0),
        default=defaults.combo_samples,
        help="pencil combinations to sample",
    )
    p.add_argument(
        "--time-budget",
        type=float,
        default=defaults.time_budget,
        help="seconds before the search degrades to an interval",
    )
    p.add_argument("--json", action="store_true", help="compact canonical JSON on stdout")


def _write_or_emit(mat, args) -> None:
    if args.output:
        instances.write(mat, args.output)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        _emit(instances.serialize(mat), args)


def _cmd_dim(args) -> int:
    mat = instances.parse(args.file)
    res = dimension(mat, _solver_options(args))
    _emit(res.to_json(), args)
    if args.require_exact and not res.exact:
        print("result is an interval, exactness was demanded", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_center(args) -> int:
    mat = instances.parse(args.file)
    rad = radical(pairing_of(mat))
    _emit(
        {
            "center_is_F": rad.rank == 0,
            "radical_rank": rad.rank,
            "radical": rad.to_json(),
        },
        args,
    )
    return EXIT_OK


def _cmd_codim(args) -> int:
    mat = instances.parse(args.file)
    try:
        value = codimension(mat, _solver_options(args))
    except InexactDimensionError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INCONCLUSIVE
    _emit({"rank": mat.rank, "codimension": value}, args)
    return EXIT_OK


def _cmd_tensor(args) -> int:
    left = instances.parse(args.left)
    right = instances.parse(args.right)
    _write_or_emit(tensor(left, right, args.mode), args)
    return EXIT_OK


def _cmd_transpose(args) -> int:
    _write_or_emit(transpose(instances.parse(args.file)), args)
    return EXIT_OK


def _integer_row(row, length: int, where: str) -> list[int]:
    if not isinstance(row, list) or len(row) != length:
        raise InstanceFormatError(f"{where}: expected a list of {length} integers")
    return [instances.integer(x, f"{where}[{c}]") for c, x in enumerate(row)]


def _cmd_restrict(args) -> int:
    mat = instances.parse(args.file)
    try:
        rows = json.loads(args.generators)
    except json.JSONDecodeError as exc:
        print(f"--generators: invalid JSON: {exc.msg}", file=sys.stderr)
        return EXIT_USAGE
    if not isinstance(rows, list):
        raise InstanceFormatError("--generators: expected a list of rows")
    rows = [_integer_row(row, mat.rank, f"--generators[{pos}]") for pos, row in enumerate(rows)]
    sub = Sublattice.span(mat.rank, rows)
    if sub.rank == 0:
        print("--generators: sublattice has rank 0", file=sys.stderr)
        return EXIT_USAGE
    _write_or_emit(restrict_matrix(mat, sub), args)
    return EXIT_OK


def _cmd_generate(args) -> int:
    if args.kind == "independent":
        mat = gen_independent(args.rank)
    elif args.kind == "commutative":
        mat = gen_commutative(args.rank)
    elif args.kind == "random":
        mat = gen_random(
            args.rank, args.free, args.torsion, args.exponent_bound, args.seed
        )
    else:  # transpose-pair
        if not args.out2:
            print("generate --kind transpose-pair needs --out2 for the second file", file=sys.stderr)
            return EXIT_USAGE
        lam, lam_t = gen_transpose_pair(args.rank)
        if args.output:
            instances.write(lam, args.output)
            instances.write(lam_t, args.out2)
            print(f"wrote {args.output} and {args.out2}", file=sys.stderr)
        else:
            _emit(
                {"first": instances.serialize(lam), "second": instances.serialize(lam_t)},
                args,
            )
        return EXIT_OK
    _write_or_emit(mat, args)
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = CampaignConfig(
        trials=args.trials,
        seed=args.seed,
        max_rank=args.max_rank,
        max_free=args.max_free,
        exponent_bound=args.exponent_bound,
    )
    report = run_campaign(config)
    _emit(report.to_json(), args)
    if report.total_violations:
        print(f"{report.total_violations} anomalies detected", file=sys.stderr)
        return EXIT_ANOMALY
    return EXIT_OK


def _parse_element(mat, text: str, flag: str) -> TwistedElement:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{flag}: invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, list):
        raise InstanceFormatError(f"{flag}: expected a list of term objects")
    total = TwistedElement.zero(mat)
    for pos, term in enumerate(doc):
        where = f"{flag}[{pos}]"
        if not isinstance(term, dict):
            raise InstanceFormatError(f"{where}: expected an object")
        exponent = _integer_row(term.get("exponent"), mat.rank, f"{where}.exponent")
        try:
            coeff = Fraction(str(term.get("coeff", 1)))
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceFormatError(f"{where}.coeff: not a rational: {exc}") from exc
        scalar = instances.scalar(mat.value_group, term, where, "scalar")
        total = total + TwistedElement.monomial(mat, exponent, coeff, scalar)
    return total


def _cmd_element_mul(args) -> int:
    mat = instances.parse(args.file)
    left = _parse_element(mat, args.left, "--left")
    right = _parse_element(mat, args.right, "--right")
    product = left * right
    terms = [
        {
            "exponent": list(a),
            "coeff": str(c),
            "scalar": {
                name: exp
                for name, exp in zip(mat.value_group.free_names, v)
                if exp
            },
            "torsion": t,
        }
        for (a, v, t), c in sorted(product.terms.items())
    ]
    _emit({"text": product.render(), "terms": terms}, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qtorus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="certified dimension interval of an instance")
    p.add_argument("file")
    p.add_argument("--require-exact", action="store_true")
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("center", help="radical and center test")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_center)

    p = sub.add_parser("codim", help="rank minus dimension (exact only)")
    p.add_argument("file")
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_codim)

    p = sub.add_parser("tensor", help="tensor product of two instances")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--mode", choices=("shared", "disjoint"), default="shared")
    p.add_argument("-o", "--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("transpose", help="transpose an instance")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_transpose)

    p = sub.add_parser("restrict", help="restrict an instance to a sublattice")
    p.add_argument("file")
    p.add_argument("--generators", required=True, help="JSON list of generator rows")
    p.add_argument("-o", "--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_restrict)

    p = sub.add_parser("generate", help="write a generated instance")
    p.add_argument(
        "--kind",
        choices=("independent", "random", "transpose-pair", "commutative"),
        required=True,
    )
    p.add_argument("--rank", type=_at_least(1), required=True)
    p.add_argument("--free", type=_at_least(0), default=1, help="free generators (random kind)")
    p.add_argument("--torsion", type=_at_least(1), default=1, help="torsion order (random kind)")
    p.add_argument("--exponent-bound", type=_at_least(0), default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.add_argument("--out2", help="second output file for transpose-pair")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="randomized campaign over all checkers")
    p.add_argument("--trials", type=_at_least(0), default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rank", type=_at_least(1), default=3)
    p.add_argument("--max-free", type=_at_least(0), default=2)
    p.add_argument("--exponent-bound", type=_at_least(0), default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("element-mul", help="multiply two formal elements (debug)")
    p.add_argument("file")
    p.add_argument("--left", required=True, help="JSON list of terms")
    p.add_argument("--right", required=True, help="JSON list of terms")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_element_mul)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (InstanceFormatError, PairingError, ValueGroupError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
