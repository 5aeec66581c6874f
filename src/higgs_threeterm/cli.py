"""Batch command-line front end.

Subcommands: enumerate, check, pair, translate, rank1, filtered-degree,
verify-metric, sweep.  Output is JSON by default or CSV with --format csv,
written to stdout or to --out.  Exit codes: 0 pass, 1 violation or failed
check, 2 usage error or a sweep worker that died.  Reports conform to
schemas/cli-reports.schema.json.  Each subcommand imports only the modules
it runs: verify-metric loads no chain, pairing or sweep.

Each handler builds its JSON report and its CSV rows from the same local
values, in a fixed key order, so equal inputs give byte-identical
reports.  A rational is written by serialize.format_rational, and an
exact complex value as {"re": "p/q", "im": "p/q"}.  A refusal is a
ValueError or an OSError (a sweep worker that died is a
ChildProcessError), and `main` alone maps it to one `error:` line and
exit 2.
"""

from __future__ import annotations

import argparse
import io
import sys
from collections.abc import Iterable
from typing import TYPE_CHECKING

from . import serialize

if TYPE_CHECKING:  # annotations only: a sweep never loads fractions
    from fractions import Fraction

    from .chain import RootSequence


def _parse_roots(text: str) -> RootSequence:
    from .chain import RootSequence  # check and pair use it; verify-metric never loads chain

    try:
        roots = tuple(int(part) for part in text.replace(" ", "").split(","))
    except ValueError as exc:
        raise ValueError(f"could not parse --roots {text!r}: {exc}") from None
    return RootSequence(roots)


def _parse_fraction(text: str) -> Fraction:
    try:
        return serialize.parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"could not parse rational {text!r}: {exc}") from None


def _parse_jumps(text: str) -> list[tuple[Fraction, int]]:
    """One cusp's jump list, written 'jump:dim,jump:dim'."""
    jumps = []
    for item in text.replace(" ", "").split(","):
        try:
            jump_text, dim_text = item.split(":")
            jumps.append((_parse_fraction(jump_text), int(dim_text)))
        except ValueError as exc:
            raise ValueError(f"could not parse jump item {item!r}: {exc}") from None
    return jumps


def _refuse(what: str, args, names) -> None:
    """Raise ValueError naming each flag of `names` that was given: `what` takes none."""
    given = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is not None]
    if given:
        raise ValueError(f"{what} takes no {', '.join(given)}")


def _csv_text(header: list[str], rows: Iterable[list]) -> str:
    import csv  # only a CSV report loads it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(args, json_obj, csv_header, csv_rows) -> None:
    """Write the report in the pieces serialize.pieces gives; a NaN or infinity
    in it raises ValueError (exit 2) before anything is written."""
    if args.format == "json":
        parts = [*serialize.pieces(json_obj), "\n"]
    else:
        parts = [_csv_text(csv_header, csv_rows)]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines(parts)
    else:
        sys.stdout.writelines(parts)


# --- subcommand handlers -----------------------------------------------------


def _cmd_check(args) -> int:
    from .chain import is_admissible, multiplicities, tail_slopes, three_term_holds

    roots = _parse_roots(args.roots)
    admissible, _ = is_admissible(roots)
    stability = tail_slopes(roots)
    total_slope = serialize.format_rational(stability.total_slope)
    slopes = [serialize.format_rational(mu) for mu in stability.tail_slopes]
    counts = multiplicities(roots).counts
    profile = {str(r): counts[r] for r in sorted(counts, reverse=True)}  # descending heights
    holds, violations = three_term_holds(counts)
    report = {
        "roots": list(roots),
        "admissible": admissible,
        "stability": {
            "total_slope": total_slope,
            "tail_slopes": slopes,
            "verdict": stability.verdict,
        },
        "multiplicities": profile,
        "three_term": {
            "holds": holds,
            "violations": [v._asdict() for v in violations],
        },
    }
    row = {
        "roots": " ".join(map(str, roots)),
        "admissible": admissible,
        "total_slope": total_slope,
        "tail_slopes": " ".join(slopes),
        "verdict": stability.verdict,
        "multiplicities": " ".join(f"{r}:{m}" for r, m in profile.items()),
        "three_term_holds": holds,
        "three_term_violations": " ".join(f"{v.height}:{v.count}>{v.below}+{v.above}" for v in violations),
    }
    _emit(args, report, list(row), [list(row.values())])
    return 0


def _cmd_enumerate(args) -> int:
    from .chain import enumerate_chains

    chains = list(
        enumerate_chains(args.n_min, args.n_max, args.max_rise, args.bound, require_stable=not args.all)
    )
    report = {
        "parameters": {
            "n_min": args.n_min,
            "n_max": args.n_max,
            "max_rise": args.max_rise,
            "root_bound": args.bound,
            "stable_only": not args.all,
        },
        "count": len(chains),
    }
    # each format writes only its own: the root lists' JSON text, or the rows read by csv
    if args.format == "json":
        report["sequences"] = serialize.Written([serialize.int_list_items(chains)])
    rows = ([len(roots), " ".join(map(str, roots))] for roots in chains)
    _emit(args, report, ["n", "roots"], rows)
    return 0


def _cmd_pair(args) -> int:
    from .chain import is_admissible, tail_slopes
    from .pairing import certify, pairs, verify_certificate

    roots = _parse_roots(args.roots)
    if args.height is not None and args.height % 2:  # every root, so every vertex's height, is even
        raise ValueError(f"--height must be even, got {args.height}")
    # certify assumes the theorem's hypotheses: a chain that lacks one is refused here
    admissible, bad = is_admissible(roots)
    if not admissible:
        raise ValueError(f"chain {roots} is inadmissible at steps {bad}")
    if not (stability := tail_slopes(roots)).is_stable:
        raise ValueError(f"chain {roots} is not tail-stable ({stability.verdict})")
    targets, failures = certify(roots)
    heights = sorted(set(roots)) if args.all_heights else [args.height]
    if failed := [r for r in heights if r in failures]:  # the construction is refuted
        print(serialize.dumps({"counterexample": failures[min(failed)]._asdict()}), file=sys.stderr)
        return 1

    blocks, rows, refused = [], [], []
    for r in heights:
        found = pairs(roots, r, targets)
        blocks.append({"height": r, "pairs": [{"source": s, "target": t, "label": label} for s, t, label in found]})
        rows += ([r, *pair] for pair in found)
        ok, reasons = verify_certificate(roots, r, targets)
        if not ok:
            refused.append({"height": r, "reasons": reasons})
    if args.all_heights:
        report = {"roots": list(roots), "certificates": blocks}
    else:
        report = blocks[0]
    _emit(args, report, ["height", "source", "target", "label"], rows)
    if refused:
        print(serialize.dumps({"refused": refused}), file=sys.stderr)
        return 1
    return 0


_TRANSLATE_FLAGS = ("beta", "u", "v", "jump", "re", "im")  # the representation's, then a side's


def _cmd_translate(args) -> int:
    from . import filtered  # loaded only by translate, rank1 and filtered-degree

    side = args.source_side
    own = _TRANSLATE_FLAGS[:3] if side == "representation" else _TRANSLATE_FLAGS[3:]
    if any(getattr(args, name) is None for name in own):
        raise ValueError(f"translate --from {side} needs {', '.join('--' + name for name in own)}")
    _refuse(f"translate --from {side}", args, [name for name in _TRANSLATE_FLAGS if name not in own])
    first, second, third = [_parse_fraction(getattr(args, name)) for name in own]
    if side == "representation":
        block = filtered.ResidueBlock(first, second, third)
    else:
        to_rep = filtered.connection_to_rep if side == "connection" else filtered.higgs_to_rep
        block = to_rep(filtered.SideResidue(first, (second, third)))

    representation = {field: serialize.format_rational(value) for field, value in block._asdict().items()}  # beta, u, v
    report = {"representation": representation}
    row = dict(representation)
    for side, to_side in (("connection", filtered.rep_to_connection), ("higgs", filtered.rep_to_higgs)):
        data = to_side(block)
        jump, re, im = map(serialize.format_rational, (data.jump, *data.eigenvalue))
        report[side] = {"jump": jump, "eigenvalue": {"re": re, "im": im}}
        row.update({f"{side}_jump": jump, f"{side}_re": re, f"{side}_im": im})
    _emit(args, report, list(row), [list(row.values())])
    return 0


def _cmd_rank1(args) -> int:
    from . import filtered

    b = _parse_fraction(args.b)
    unfiltered_degree, filtered_degree = filtered.rank1_degrees(args.a, b)
    report = {
        "a": args.a,
        "b": serialize.format_rational(b),
        "jump": serialize.format_rational(filtered.rank1_jump(args.a, b)),
        "unfiltered_degree": serialize.format_rational(unfiltered_degree),
        "filtered_degree": serialize.format_rational(filtered_degree),
        "residue_angle": serialize.format_rational(filtered.rank1_residue_angle(args.a)),
    }
    _emit(args, report, list(report), [list(report.values())])
    return 0


def _cmd_filtered_degree(args) -> int:
    from . import filtered

    cusps = tuple(tuple(_parse_jumps(text)) for text in args.jumps)
    if args.side == "representation":
        _refuse("filtered-degree --side representation", args, ("rank", "base_degree"))
        data = filtered.FilteredJumpData(cusps)
        extra = {"dimension": data.dimension}
    else:
        if args.rank is None or args.base_degree is None:
            raise ValueError("filtered-degree --side bundle needs --rank and --base-degree")
        jumps = filtered.FilteredJumpData(cusps)  # built first: a jump error comes before a bad --base-degree
        data = filtered.FilteredBundleData(_parse_fraction(args.base_degree), args.rank, jumps)
        extra = {"rank": data.rank}
    report = {
        "side": args.side,
        "degree": serialize.format_rational(data.degree),
        "slope": serialize.format_rational(data.slope),
        **extra,
    }
    _emit(args, report, list(report), [list(report.values())])
    return 0


def _cmd_verify_metric(args) -> int:
    from . import harmonic  # the only numpy user; other subcommands skip its import

    grid, seed = None, (0 if args.seed is None else args.seed)
    if args.tau is not None:
        _refuse("verify-metric --tau", args, ("grid", "seed"))
        try:
            grid, seed = [harmonic.UpperHalfPoint.parse(args.tau)], None  # no grid to seed
        except ValueError as exc:
            raise ValueError(f"bad --tau: {exc}") from None
    elif args.grid is not None and args.grid < 1:
        raise ValueError(f"--grid must be >= 1, got {args.grid}")
    report = harmonic.verification_report(
        grid=grid,
        count=20 if args.grid is None else args.grid,
        seed=seed,
        h=args.h,
        h_nested=args.h_nested,
        only=args.check,
        tolerance=args.tolerance,
    )
    checks = report["checks"]  # csv writes a float as its repr
    _emit(args, report, list(checks[0]), [list(check.values()) for check in checks])
    return 0 if report["pass"] else 1


def _cmd_sweep(args) -> int:
    from . import sweep

    params = sweep.SweepParams(args.n_min, args.n_max, args.max_rise, args.bound, args.mode)
    # a CSV report prints only the counts, so the sweep writes no records for it
    report = sweep.written_report(params, workers=args.workers, records=args.format == "json")
    per_n = report["per_n"]
    counts = list(next(iter(per_n.values())))  # totals has them too, and certificates, not printed
    rows = [[n, *(bucket[k] for k in counts)] for n, bucket in [*per_n.items(), ("total", report["totals"])]]
    _emit(args, report, ["n", *counts], rows)
    return 0 if report["pass"] else 1


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", metavar="PATH", default=None, help="write the report here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="higgs-threeterm",
        description="Verification tools for chain-type nilpotent filtered Higgs bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="admissibility, stability, multiplicities, three-term report for one chain")
    p.add_argument("--roots", required=True, help="comma-separated even integers, e.g. 4,2,0,-2")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("enumerate", parents=[common], help="list bounded chains with r_1 = 0")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--max-rise", type=int, default=8)
    p.add_argument("--bound", type=int, default=10)
    p.add_argument("--all", action="store_true", help="include admissible chains that are not tail-stable")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("pair", parents=[common], help="build and verify matching certificates")
    p.add_argument("--roots", required=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--height", type=int, default=None)
    which.add_argument("--all-heights", action="store_true")
    p.set_defaults(handler=_cmd_pair)

    p = sub.add_parser("translate", parents=[common], help="translate residue data between the three sides")
    p.add_argument("--from", dest="source_side", choices=("representation", "connection", "higgs"), default="representation")
    p.add_argument("--beta", default=None)
    p.add_argument("--u", default=None)
    p.add_argument("--v", default=None)
    p.add_argument("--jump", default=None)
    p.add_argument("--re", default=None)
    p.add_argument("--im", default=None)
    p.set_defaults(handler=_cmd_translate)

    p = sub.add_parser("rank1", parents=[common], help="rank-1 filtered character: jump, degrees, residue angle")
    p.add_argument("--a", type=int, required=True, help="character power, 0..5")
    p.add_argument("--b", required=True, help="filtration jump, a rational like 5/4")
    p.set_defaults(handler=_cmd_rank1)

    p = sub.add_parser("filtered-degree", parents=[common], help="exact degree and slope of filtered jump data")
    p.add_argument("--side", choices=("representation", "bundle"), required=True)
    p.add_argument("--jumps", action="append", required=True, metavar="J:D,J:D", help="one cusp's jump:dimension list; repeat per cusp")
    p.add_argument("--base-degree", default=None)
    p.add_argument("--rank", type=int, default=None)
    p.set_defaults(handler=_cmd_filtered_degree)

    p = sub.add_parser("verify-metric", parents=[common], help="numeric checks of the explicit harmonic metric")
    p.add_argument("--tau", default=None, help="single sample point as x+yi, e.g. 0.3+1.2i")
    p.add_argument("--grid", type=int, default=None, help="quasi-random sample count (default 20; not with --tau)")
    p.add_argument("--seed", type=int, default=None, help="grid seed (default 0; not with --tau)")
    p.add_argument("--h", type=float, default=1e-4, help="first-order finite-difference step")
    p.add_argument("--h-nested", type=float, default=1e-3, help="nested second-derivative step")
    p.add_argument("--check", default=None, help="run a single named check")
    p.add_argument("--tolerance", type=float, default=None, help="override the tolerance of the selected checks")
    p.set_defaults(handler=_cmd_verify_metric)

    p = sub.add_parser("sweep", parents=[common], help="exhaustive theorem or stability-necessity sweep")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=7)
    p.add_argument("--max-rise", type=int, default=12)
    p.add_argument("--bound", type=int, default=12)
    p.add_argument("--mode", choices=("theorem", "necessity"), default="theorem")
    p.add_argument("--workers", type=int, default=1, help="parallel workers (default 1)")
    p.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
