"""Command-line entry point.

Subcommands cover the whole pipeline: build and check the group (group,
export-gap), enumerate orbits (enumerate), classify combinatorial types
(classify), report the distinguished pairs (pairs), inspect one arrangement
(invariants), and run the acceptance suite (verify). Output is deterministic
byte for byte across runs and worker counts; timing never appears in output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import stat
import sys
from dataclasses import dataclass

from .checks import build_context, run_all
from .expectations import load_expectations
from .graphs import classify_types, find_zariski_pairs
from .invariants import invariant_report
from .lines import (
    SIMPLE_ROOTS,
    build_line_system,
    cycle_notation,
    generate_group,
    isometry_to_permutation,
    reflection,
    standard_generators,
    verify_dynkin,
    weyl_group,
)
from .orbits import enumerate_all, mask_from_lines

FORMATS = ("json", "csv", "text")


@dataclass(frozen=True)
class RunConfig:
    command: str
    output_path: str | None
    format: str
    workers: int
    n_filter: int | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.n_filter is not None and not 0 <= self.n_filter <= 27:
            raise ValueError("n must be between 0 and 27")


def _default_workers() -> int:
    counter = getattr(os, "process_cpu_count", None) or os.cpu_count
    return counter() or 1


def _emit(text: str, cfg: RunConfig) -> None:
    """Write to stdout, or to --output, replacing a regular file atomically.

    A missing or regular target is written beside itself under a temporary
    name, given the old file's mode, and renamed over it, so a write that
    fails partway leaves any old file as it was and removes the partial one.
    Anything else (a device such as /dev/null, a FIFO, a pipe) and a file in
    a directory we cannot create files in are written in place.
    """
    if not cfg.output_path:
        sys.stdout.write(text)
        return
    target = cfg.output_path
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    fh = None
    if mode is None or stat.S_ISREG(mode):
        target = os.path.realpath(target)
        directory, name = os.path.split(target)
        partial = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
        try:
            fh = open(partial, "x", encoding="utf-8")
        except PermissionError:
            pass
    if fh is None:
        with open(target, "w", encoding="utf-8") as out:
            out.write(text)
        return
    try:
        with fh:
            if mode is not None:
                os.chmod(partial, stat.S_IMODE(mode))
            fh.write(text)
        os.replace(partial, target)
    except BaseException:
        os.unlink(partial)
        raise


def _csv_table(rows: list[list], header: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _fmt_lines(lines) -> str:
    return "[" + ",".join(str(x) for x in lines) + "]"


def cmd_group(cfg: RunConfig, corrupt_root: bool = False) -> int:
    roots = list(SIMPLE_ROOTS)
    if corrupt_root:
        roots[1], roots[2] = roots[2], roots[1]
    dynkin_ok = verify_dynkin(roots)
    ls = build_line_system()
    perms = tuple(isometry_to_permutation(reflection(r), ls) for r in roots)
    group = generate_group(perms)
    cycles = [cycle_notation(p) for p in perms]
    exp = load_expectations()
    match = (
        dynkin_ok
        and group.order == exp.group_order
        and tuple(cycles) == exp.generator_cycles
    )
    if cfg.format == "json":
        payload = {
            "order": group.order,
            "dynkin": dynkin_ok,
            "generators": cycles,
            "match": match,
        }
        _emit(json.dumps(payload) + "\n", cfg)
    elif cfg.format == "csv":
        rows = [["order", str(group.order)], ["dynkin", "PASS" if dynkin_ok else "FAIL"]]
        rows += [[f"generator_{i}", c] for i, c in enumerate(cycles, start=1)]
        rows.append(["match", "PASS" if match else "FAIL"])
        _emit(_csv_table(rows, ["field", "value"]), cfg)
    else:
        out = [f"order: {group.order}", f"dynkin: {'PASS' if dynkin_ok else 'FAIL'}"]
        out += [f"generator {i}: {c}" for i, c in enumerate(cycles, start=1)]
        out.append(f"match: {'PASS' if match else 'FAIL'}")
        _emit("\n".join(out) + "\n", cfg)
    return 0 if match else 1


def cmd_enumerate(cfg: RunConfig) -> int:
    group = weyl_group()
    records = enumerate_all(group, max_n=cfg.n_filter, workers=cfg.workers)
    emitted = (
        records
        if cfg.n_filter is None
        else [r for r in records if r.n == cfg.n_filter]
    )
    top = 27 if cfg.n_filter is None else cfg.n_filter
    counts = [0] * (top + 1)
    for r in records:
        counts[r.n] += 1
    jsonl = "".join(
        json.dumps(r.as_dict(), separators=(",", ":")) + "\n" for r in emitted
    )
    table = [f"{'n':>3}  {'orbits':>6}"]
    table += [f"{n:>3}  {c:>6}" for n, c in enumerate(counts)]
    table.append(f"total {len(records)}")
    table_text = "\n".join(table) + "\n"
    if cfg.format == "json":
        _emit(jsonl, cfg)
        sys.stderr.write(table_text)
    elif cfg.format == "csv":
        _emit(
            _csv_table([[n, c] for n, c in enumerate(counts)], ["n", "count"]), cfg
        )
    else:
        if cfg.output_path:
            _emit(jsonl, cfg)
        sys.stdout.write(table_text)
    return 0


def cmd_classify(cfg: RunConfig) -> int:
    ls = build_line_system()
    group = weyl_group()
    records = enumerate_all(group, workers=cfg.workers)
    fibers = classify_types(records, ls)
    big = {cert for cert, members in fibers.items() if len(members) > 1}
    if cfg.format == "json":
        payload = [
            {
                "certificate": cert,
                "members": [list(r.min_rep) for r in members],
                "is_zariski_tuple": cert in big,
            }
            for cert, members in fibers.items()
        ]
        _emit(json.dumps(payload, indent=1) + "\n", cfg)
    elif cfg.format == "csv":
        rows = [
            [
                cert,
                members[0].n,
                len(members),
                "|".join(" ".join(map(str, r.min_rep)) for r in members),
            ]
            for cert, members in fibers.items()
        ]
        _emit(_csv_table(rows, ["certificate", "n", "orbits", "members"]), cfg)
    else:
        out = [
            f"orbits: {len(records)}",
            f"types: {len(fibers)}",
            f"fibers with more than one orbit: {len(big)}",
        ]
        for cert, members in fibers.items():
            if cert in big:
                reps = " ".join(_fmt_lines(r.min_rep) for r in members)
                out.append(f"  {cert}: {reps}")
        _emit("\n".join(out) + "\n", cfg)
    return 0


def cmd_pairs(cfg: RunConfig) -> int:
    exp = load_expectations()
    ctx = build_context(workers=cfg.workers)
    fibers = find_zariski_pairs(ctx.records, ctx.ls, certificates=ctx.certificates)
    tuples = {
        (cert, rep.perp_parity, rep.h1_torsion, rep.h1_free_rank)
        for cert, rep in zip(ctx.certificates, ctx.reports)
    }
    corollary = len(tuples) == len(ctx.records)

    diffs: list[str] = []
    if len(fibers) != len(exp.zariski_pairs):
        diffs.append(f"found {len(fibers)} fibers of size > 1, expected {len(exp.zariski_pairs)}")
    for fiber, want in zip(fibers, exp.zariski_pairs):
        got_members = tuple(r.min_rep for r in fiber.members)
        if got_members != want.members:
            diffs.append(f"members {got_members} != {want.members}")
            continue
        got_sizes = tuple(r.orbit_size for r in fiber.members)
        if got_sizes != want.orbit_sizes:
            diffs.append(f"orbit sizes {got_sizes} != {want.orbit_sizes} for {got_members}")
        if want.perp_parity and tuple(r.perp_parity for r in fiber.reports) != want.perp_parity:
            diffs.append(f"parity mismatch for {got_members}")
        if want.h1_torsion is not None and tuple(r.h1_torsion for r in fiber.reports) != want.h1_torsion:
            diffs.append(f"h1 torsion mismatch for {got_members}")
        if want.h1_free_rank is not None and tuple(r.h1_free_rank for r in fiber.reports) != want.h1_free_rank:
            diffs.append(f"h1 free rank mismatch for {got_members}")
    if not corollary:
        diffs.append("type plus invariants do not separate all orbits")
    match = not diffs

    if cfg.format == "json":
        payload = {
            "pairs": [fiber.as_dict() for fiber in fibers],
            "corollary_holds": corollary,
            "match": match,
        }
        _emit(json.dumps(payload, indent=1) + "\n", cfg)
    elif cfg.format == "csv":
        rows = []
        for idx, fiber in enumerate(fibers, start=1):
            for record, report in zip(fiber.members, fiber.reports):
                rows.append(
                    [
                        idx,
                        " ".join(map(str, record.min_rep)),
                        record.orbit_size,
                        report.perp_parity,
                        " ".join(map(str, report.h1_torsion)),
                        report.h1_free_rank,
                    ]
                )
        _emit(
            _csv_table(
                rows,
                ["pair", "member", "orbit_size", "perp_parity", "h1_torsion", "h1_free_rank"],
            ),
            cfg,
        )
    else:
        out = []
        for idx, fiber in enumerate(fibers, start=1):
            reps = " / ".join(_fmt_lines(r.min_rep) for r in fiber.members)
            out.append(f"pair {idx}: {reps}")
            out.append(
                "  orbit sizes: " + " / ".join(str(r.orbit_size) for r in fiber.members)
            )
            out.append(
                "  perp parity: " + " / ".join(r.perp_parity for r in fiber.reports)
            )
            out.append(
                "  h1 torsion: "
                + " / ".join(_fmt_lines(r.h1_torsion) for r in fiber.reports)
            )
            out.append(
                "  h1 free rank: "
                + " / ".join(str(r.h1_free_rank) for r in fiber.reports)
            )
            out.append("  distinguished by: " + ", ".join(fiber.distinguished_by))
        out.append(
            f"deformation classes equal type classes on all {len(ctx.records)} orbits: "
            + ("PASS" if corollary else "FAIL")
        )
        out.append(f"match: {'PASS' if match else 'FAIL'}")
        for diff in diffs:
            out.append(f"  diff: {diff}")
        _emit("\n".join(out) + "\n", cfg)
    return 0 if match else 1


def cmd_invariants(cfg: RunConfig, lines: list[int]) -> int:
    mask = mask_from_lines(lines)
    report = invariant_report(mask)
    if cfg.format == "json":
        _emit(json.dumps(report.as_dict()) + "\n", cfg)
    elif cfg.format == "csv":
        rows = [
            ["lines", " ".join(map(str, report.lines))],
            ["span_rank", report.span_rank],
            ["perp_rank", report.perp_rank],
            ["perp_parity", report.perp_parity],
            ["h1_torsion", " ".join(map(str, report.h1_torsion))],
            ["h1_free_rank", report.h1_free_rank],
        ]
        _emit(_csv_table(rows, ["field", "value"]), cfg)
    else:
        out = [
            f"lines: {_fmt_lines(report.lines)}",
            f"span rank: {report.span_rank}",
            f"perp rank: {report.perp_rank}",
            f"perp parity: {report.perp_parity}",
            f"h1 torsion: {_fmt_lines(report.h1_torsion)}",
            f"h1 free rank: {report.h1_free_rank}",
        ]
        _emit("\n".join(out) + "\n", cfg)
    return 0


def cmd_export_gap(cfg: RunConfig) -> int:
    text = "".join(cycle_notation(p) + "\n" for p in standard_generators())
    _emit(text, cfg)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    results = run_all(workers=cfg.workers)
    passed = sum(1 for r in results if r.passed)
    if cfg.format == "json":
        payload = [
            {"number": r.number, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ]
        _emit(json.dumps(payload, indent=1) + "\n", cfg)
    elif cfg.format == "csv":
        rows = [[r.number, r.name, "PASS" if r.passed else "FAIL"] for r in results]
        _emit(_csv_table(rows, ["number", "name", "status"]), cfg)
    else:
        out = [r.line() for r in results]
        out.append(f"{passed}/{len(results)} checks passed")
        _emit("\n".join(out) + "\n", cfg)
    return 0 if passed == len(results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weyl27",
        description="Classify line arrangements on a general cubic surface under the Weyl group action.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=FORMATS, default="text")
        p.add_argument("--output", metavar="PATH", help="write the result to a file")
        p.add_argument(
            "--workers",
            type=int,
            default=_default_workers(),
            help="parallel worker processes (default: available cores)",
        )

    p = sub.add_parser("group", help="build the group and check the generators")
    common(p)
    p.add_argument("--corrupt-root", action="store_true", help=argparse.SUPPRESS)

    p = sub.add_parser("enumerate", help="enumerate orbit representatives")
    common(p)
    p.add_argument("--n", type=int, dest="n_filter", default=None, metavar="N",
                   help="only emit records with N lines (also caps the search)")

    p = sub.add_parser("classify", help="group orbits by combinatorial type")
    common(p)

    p = sub.add_parser("pairs", help="report the fibers with more than one orbit")
    common(p)

    p = sub.add_parser("invariants", help="lattice invariants of one arrangement")
    common(p)
    p.add_argument("lines", type=int, nargs="*", metavar="LINE",
                   help="line numbers in 1..27 (empty for the empty arrangement)")

    p = sub.add_parser("export-gap", help="write generators in cycle notation")
    common(p)

    p = sub.add_parser("verify", help="run the acceptance checks")
    common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig(
            command=args.command,
            output_path=args.output,
            format=args.format,
            workers=args.workers,
            n_filter=getattr(args, "n_filter", None),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "group":
            return cmd_group(cfg, corrupt_root=args.corrupt_root)
        if args.command == "enumerate":
            return cmd_enumerate(cfg)
        if args.command == "classify":
            return cmd_classify(cfg)
        if args.command == "pairs":
            return cmd_pairs(cfg)
        if args.command == "invariants":
            try:
                return cmd_invariants(cfg, args.lines)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        if args.command == "export-gap":
            return cmd_export_gap(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
