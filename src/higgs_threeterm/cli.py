"""Batch command-line front end.

Subcommands: enumerate, check, pair, translate, rank1, filtered-degree,
verify-metric, sweep.  Output is JSON by default or CSV with --format csv,
written to stdout or to --out.  Exit codes: 0 pass, 1 violation or failed
check, 2 usage error.  Reports conform to schemas/cli-reports.schema.json.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import harmonic, serialize, sweep
from .chain import (
    MalformedSequenceError,
    RootSequence,
    enumerate_chains,
)
from .filtered import (
    BranchError,
    FilteredBundleData,
    FilteredJumpData,
    ResidueBlock,
    SideResidue,
    connection_to_rep,
    filtered_degree_bundle,
    filtered_degree_rep,
    higgs_to_rep,
    rank1_degrees,
    rank1_jump,
    rank1_residue_angle,
    rep_to_connection,
    rep_to_higgs,
    slope_bundle,
    slope_rep,
)
from .pairing import (
    HypothesisViolationError,
    PairingFailure,
    build_matching,
    certified_heights,
    verify_certificate,
)


class UsageError(Exception):
    """Bad input that argparse could not catch itself."""


def _parse_roots(text: str) -> RootSequence:
    try:
        roots = tuple(int(part) for part in text.replace(" ", "").split(",") if part != "")
    except ValueError as exc:
        raise UsageError(f"could not parse --roots {text!r}: {exc}") from None
    try:
        return RootSequence(roots)
    except MalformedSequenceError as exc:
        raise UsageError(str(exc)) from None


def _parse_fraction(text: str) -> Fraction:
    try:
        return serialize.parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"could not parse rational {text!r}: {exc}") from None


def _parse_jumps(text: str) -> list[tuple[Fraction, int]]:
    """One cusp's jump list, written 'jump:dim,jump:dim'."""
    jumps = []
    for item in text.replace(" ", "").split(","):
        if not item:
            continue
        try:
            jump_text, dim_text = item.split(":")
            jumps.append((_parse_fraction(jump_text), int(dim_text)))
        except (ValueError, UsageError) as exc:
            raise UsageError(f"could not parse jump item {item!r}: {exc}") from None
    if not jumps:
        raise UsageError("empty jump list")
    return jumps


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(args, json_obj, csv_header, csv_rows) -> None:
    if args.format == "json":
        text = json.dumps(json_obj, indent=2) + "\n"
    else:
        text = _csv_text(csv_header, csv_rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# --- subcommand handlers -----------------------------------------------------


def _cmd_check(args) -> int:
    seq = _parse_roots(args.roots)
    report = serialize.check_report(seq)
    stability = report["stability"]
    row = [
        " ".join(str(r) for r in report["roots"]),
        report["admissible"],
        stability["total_slope"],
        " ".join(stability["tail_slopes"]),
        stability["verdict"],
        " ".join(f"{k}:{v}" for k, v in report["multiplicities"].items()),
        report["three_term"]["holds"],
        " ".join(
            f"{v['height']}:{v['count']}>{v['below']}+{v['above']}"
            for v in report["three_term"]["violations"]
        ),
    ]
    header = [
        "roots",
        "admissible",
        "total_slope",
        "tail_slopes",
        "verdict",
        "multiplicities",
        "three_term_holds",
        "three_term_violations",
    ]
    _emit(args, report, header, [row])
    return 0


def _cmd_enumerate(args) -> int:
    sequences = [
        list(seq.roots)
        for seq in enumerate_chains(
            args.n_min, args.n_max, args.max_rise, args.bound, require_stable=not args.all
        )
    ]
    report = {
        "parameters": {
            "n_min": args.n_min,
            "n_max": args.n_max,
            "max_rise": args.max_rise,
            "root_bound": args.bound,
            "stable_only": not args.all,
        },
        "count": len(sequences),
        "sequences": sequences,
    }
    rows = [[len(roots), " ".join(str(r) for r in roots)] for roots in sequences]
    _emit(args, report, ["n", "roots"], rows)
    return 0


def _cmd_pair(args) -> int:
    seq = _parse_roots(args.roots)
    if args.height is None and not args.all_heights:
        raise UsageError("pair needs --height R or --all-heights")
    try:
        if args.all_heights:
            certs = list(certified_heights(seq).values())
        else:
            certs = [build_matching(seq, args.height)]
    except HypothesisViolationError as exc:
        raise UsageError(str(exc)) from None

    failures = []
    for cert in certs:
        ok, reasons = verify_certificate(seq, cert)
        if not ok:
            failures.append({"height": cert.height, "reasons": reasons})
    if args.all_heights:
        report = {
            "roots": list(seq.roots),
            "certificates": [serialize.certificate_json(c) for c in certs],
        }
    else:
        report = serialize.certificate_json(certs[0])
    rows = [
        [c.height, p.source, p.target, p.label.value] for c in certs for p in c.pairs
    ]
    _emit(args, report, ["height", "source", "target", "label"], rows)
    if failures:
        print(f"certificate verification failed: {failures}", file=sys.stderr)
        return 1
    return 0


def _cmd_translate(args) -> int:
    if args.source_side == "representation":
        if args.beta is None or args.u is None or args.v is None:
            raise UsageError("translate --from representation needs --beta, --u, --v")
        try:
            block = ResidueBlock(
                _parse_fraction(args.beta), _parse_fraction(args.u), _parse_fraction(args.v)
            )
        except BranchError as exc:
            raise UsageError(str(exc)) from None
    else:
        if args.jump is None or args.re is None or args.im is None:
            raise UsageError(f"translate --from {args.source_side} needs --jump, --re, --im")
        data = SideResidue(
            _parse_fraction(args.jump),
            (_parse_fraction(args.re), _parse_fraction(args.im)),
        )
        try:
            block = connection_to_rep(data) if args.source_side == "connection" else higgs_to_rep(data)
        except BranchError as exc:
            raise UsageError(str(exc)) from None

    connection = rep_to_connection(block)
    higgs = rep_to_higgs(block)
    report = {
        "representation": serialize.residue_block_json(block),
        "connection": serialize.side_residue_json(connection),
        "higgs": serialize.side_residue_json(higgs),
    }
    row = [
        report["representation"]["beta"],
        report["representation"]["u"],
        report["representation"]["v"],
        report["connection"]["jump"],
        report["connection"]["eigenvalue"]["re"],
        report["connection"]["eigenvalue"]["im"],
        report["higgs"]["jump"],
        report["higgs"]["eigenvalue"]["re"],
        report["higgs"]["eigenvalue"]["im"],
    ]
    header = [
        "beta",
        "u",
        "v",
        "connection_jump",
        "connection_re",
        "connection_im",
        "higgs_jump",
        "higgs_re",
        "higgs_im",
    ]
    _emit(args, report, header, [row])
    return 0


def _cmd_rank1(args) -> int:
    if not 0 <= args.a <= 5:
        raise UsageError(f"--a must be in 0..5, got {args.a}")
    b = _parse_fraction(args.b)
    unfiltered, filtered = rank1_degrees(args.a, b)
    report = {
        "a": args.a,
        "b": serialize.format_rational(b),
        "jump": serialize.format_rational(rank1_jump(args.a, b)),
        "unfiltered_degree": serialize.format_rational(unfiltered),
        "filtered_degree": serialize.format_rational(filtered),
        "residue_angle": serialize.format_rational(rank1_residue_angle(args.a)),
    }
    header = ["a", "b", "jump", "unfiltered_degree", "filtered_degree", "residue_angle"]
    _emit(args, report, header, [[report[k] for k in header]])
    return 0


def _cmd_filtered_degree(args) -> int:
    cusps = tuple(tuple(_parse_jumps(text)) for text in args.jumps)
    try:
        if args.side == "representation":
            data = FilteredJumpData("representation", cusps)
            degree, slope = filtered_degree_rep(data), slope_rep(data)
            extra = {"dimension": data.dimension}
        else:
            if args.rank is None or args.base_degree is None:
                raise UsageError("filtered-degree --side bundle needs --rank and --base-degree")
            jump_data = FilteredJumpData("bundle", cusps)
            data = FilteredBundleData(_parse_fraction(args.base_degree), args.rank, jump_data)
            degree, slope = filtered_degree_bundle(data), slope_bundle(data)
            extra = {"rank": args.rank}
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    report = {
        "side": args.side,
        "degree": serialize.format_rational(degree),
        "slope": serialize.format_rational(slope),
        **extra,
    }
    header = list(report)
    _emit(args, report, header, [[report[k] for k in header]])
    return 0


def _cmd_verify_metric(args) -> int:
    grid = None
    if args.tau is not None:
        try:
            grid = [harmonic.UpperHalfPoint.parse(args.tau)]
        except ValueError as exc:
            raise UsageError(f"bad --tau: {exc}") from None
    try:
        report = harmonic.verification_report(
            grid=grid,
            count=args.grid,
            seed=args.seed,
            h=args.h,
            h_nested=args.h_nested,
            only=args.check,
            tolerance=args.tolerance,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows = [
        [row["check_name"], repr(row["max_residual"]), repr(row["tolerance"]), row["pass"]]
        for row in report["checks"]
    ]
    _emit(args, report, ["check_name", "max_residual", "tolerance", "pass"], rows)
    return 0 if report["pass"] else 1


def _cmd_sweep(args) -> int:
    params = sweep.SweepParams(args.n_min, args.n_max, args.max_rise, args.bound, args.mode)
    workers = sweep.default_workers() if args.workers is None else args.workers
    report = sweep.run_sweep(params, workers=workers)
    rows = [
        [n, bucket["generated"], bucket["admissible"], bucket["stable"]]
        for n, bucket in report["per_n"].items()
    ]
    totals = report["totals"]
    rows.append(["total", totals["generated"], totals["admissible"], totals["stable"]])
    _emit(args, report, ["n", "generated", "admissible", "stable"], rows)
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
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--all-heights", action="store_true")
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
    p.add_argument("--grid", type=int, default=20, help="quasi-random sample count")
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--mode", choices=(sweep.MODE_THEOREM, sweep.MODE_NECESSITY), default=sweep.MODE_THEOREM)
    p.add_argument("--workers", type=int, default=None, help=f"parallel workers (default ${sweep.WORKERS_ENV_VAR} or 1)")
    p.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PairingFailure as exc:
        print(json.dumps({"counterexample": exc.report()}, indent=2), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
