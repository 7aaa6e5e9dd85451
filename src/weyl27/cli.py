"""Command-line entry point.

Subcommands cover the whole pipeline: build and check the group (group,
export-gap), enumerate orbits (enumerate), classify combinatorial types
(classify), report the distinguished pairs (pairs), inspect one arrangement
(invariants), and run the acceptance suite (verify). Output is deterministic
byte for byte across runs and worker counts; timing never appears in output.

Each command computes its result once and hands it to _render as a JSON
document, CSV rows and text lines. Two commands keep their own streams:
enumerate writes its JSONL records to stdout or --output with the count
table beside them, and export-gap writes cycle notation in every format.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import stat
import sys
from dataclasses import dataclass

from .checks import build_context, group_problems, pair_checks, run_all
from .expectations import ExpectationsError, load_expectations
from .graphs import classify_types, find_zariski_pairs
from .invariants import invariant_report
from .lines import (
    SIMPLE_ROOTS,
    cycle_notation,
    generate_group,
    standard_generators,
    verify_dynkin,
    weyl_group,
)
from .orbits import WorkerError, enumerate_all, mask_from_lines

FORMATS = ("json", "csv", "text")
# the commands that run the enumeration, the only work split across a pool
POOLED = ("enumerate", "classify", "pairs", "verify")


@dataclass(frozen=True)
class RunConfig:
    output_path: str | None
    format: str
    workers: int
    n_filter: int | None = None
    lines: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        cores = _core_count()
        if self.workers > cores:
            raise ValueError(f"workers must be at most {cores}, the available cores")
        if self.n_filter is not None and not 0 <= self.n_filter <= 27:
            raise ValueError("n must be between 0 and 27")
        mask_from_lines(self.lines)  # raises on a bad or repeated line number


def _core_count() -> int:
    """Cores this process may use: the ceiling on --workers.

    The process's CPU affinity where the platform reports one, since
    os.cpu_count counts every CPU of the host; else os.cpu_count.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _emit(text: str, cfg: RunConfig) -> None:
    """Write to stdout, or to --output, replacing a regular file atomically.

    A missing or regular target is written beside itself under a temporary
    name with a random suffix, given the old file's mode, and renamed over
    it, so a write that fails partway leaves any old file as it was and
    removes the partial one, and a temporary file left by a killed run is
    never opened again.
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
        partial = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
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


def _render(
    cfg: RunConfig,
    code: int,
    doc,
    header: list[str],
    rows: list,
    lines: list[str],
    indent: int | None = 1,
) -> int:
    """Write one result in cfg.format, to stdout or --output; return code.

    doc is the JSON document, header and rows the CSV table, and lines the
    text, one string per line. Field tables print compact JSON (indent None).
    """
    if cfg.format == "json":
        text = json.dumps(doc, indent=indent) + "\n"
    elif cfg.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = "\n".join(lines) + "\n"
    _emit(text, cfg)
    return code


def _render_fields(cfg: RunConfig, code: int, doc: dict, fields: list[tuple]) -> int:
    """_render a field/value table: CSV rows and text lines from one list.

    Booleans read PASS/FAIL. Tuples are space-separated in CSV and [a,b] in
    text, where a field name also reads with spaces for underscores.
    """
    rows, lines = [], []
    for name, value in fields:
        if isinstance(value, bool):
            value = _status(value)
        is_tuple = isinstance(value, tuple)
        rows.append([name, " ".join(map(str, value)) if is_tuple else value])
        lines.append(f"{name.replace('_', ' ')}: {_fmt_lines(value) if is_tuple else value}")
    return _render(cfg, code, doc, ["field", "value"], rows, lines, indent=None)


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _fmt_lines(lines) -> str:
    return "[" + ",".join(str(x) for x in lines) + "]"


def cmd_group(cfg: RunConfig) -> int:
    dynkin = verify_dynkin(SIMPLE_ROOTS)
    group = generate_group(standard_generators())
    cycles = [cycle_notation(p) for p in group.generators]
    match = dynkin and not group_problems(group, load_expectations())
    fields = [("order", group.order), ("dynkin", dynkin)]
    fields += [(f"generator_{i}", c) for i, c in enumerate(cycles, start=1)]
    fields.append(("match", match))
    doc = {"order": group.order, "dynkin": dynkin, "generators": cycles, "match": match}
    return _render_fields(cfg, 0 if match else 1, doc, fields)


def cmd_enumerate(cfg: RunConfig) -> int:
    records = enumerate_all(weyl_group(), max_n=cfg.n_filter, workers=cfg.workers)
    top = 27 if cfg.n_filter is None else cfg.n_filter
    counts = [0] * (top + 1)
    for r in records:
        counts[r.n] += 1
    if cfg.format == "csv":
        return _render(cfg, 0, None, ["n", "count"], list(enumerate(counts)), [])
    if cfg.format == "json" or cfg.output_path:
        emitted = records if cfg.n_filter is None else [r for r in records if r.n == cfg.n_filter]
        _emit("".join(json.dumps(r.as_dict(), separators=(",", ":")) + "\n" for r in emitted), cfg)
    # the count table goes to stderr when stdout may carry the record stream
    table = [f"{'n':>3}  {'orbits':>6}"]
    table += [f"{n:>3}  {c:>6}" for n, c in enumerate(counts)]
    table.append(f"total {len(records)}")
    (sys.stderr if cfg.format == "json" else sys.stdout).write("\n".join(table) + "\n")
    return 0


def cmd_classify(cfg: RunConfig) -> int:
    records = enumerate_all(weyl_group(), workers=cfg.workers)
    fibers = classify_types(records)
    big = [(cert, members) for cert, members in fibers.items() if len(members) > 1]
    doc = [
        {
            "certificate": cert,
            "members": [list(r.min_rep) for r in members],
            "is_zariski_tuple": len(members) > 1,
        }
        for cert, members in fibers.items()
    ]
    rows = [
        [cert, members[0].n, len(members), "|".join(" ".join(map(str, r.min_rep)) for r in members)]
        for cert, members in fibers.items()
    ]
    lines = [
        f"orbits: {len(records)}",
        f"types: {len(fibers)}",
        f"fibers with more than one orbit: {len(big)}",
    ]
    lines += [f"  {cert}: " + " ".join(_fmt_lines(r.min_rep) for r in members) for cert, members in big]
    return _render(cfg, 0, doc, ["certificate", "n", "orbits", "members"], rows, lines)


def cmd_pairs(cfg: RunConfig) -> int:
    exp = load_expectations()
    ctx = build_context(workers=cfg.workers)
    fibers = find_zariski_pairs(ctx.records, ctx.types)
    checks = pair_checks(ctx, exp)
    match = all(r.passed for r in checks)
    corollary = checks[-1].passed
    doc = {"pairs": [f.as_dict() for f in fibers], "corollary_holds": corollary, "match": match}
    rows = [
        [
            idx,
            " ".join(map(str, record.min_rep)),
            record.orbit_size,
            report.perp_parity,
            " ".join(map(str, report.h1_torsion)),
            report.h1_free_rank,
        ]
        for idx, fiber in enumerate(fibers, start=1)
        for record, report in zip(fiber.members, fiber.reports)
    ]
    lines = []
    for idx, fiber in enumerate(fibers, start=1):
        lines += [
            f"pair {idx}: " + " / ".join(_fmt_lines(r.min_rep) for r in fiber.members),
            "  orbit sizes: " + " / ".join(str(r.orbit_size) for r in fiber.members),
            "  perp parity: " + " / ".join(r.perp_parity for r in fiber.reports),
            "  h1 torsion: " + " / ".join(_fmt_lines(r.h1_torsion) for r in fiber.reports),
            "  h1 free rank: " + " / ".join(str(r.h1_free_rank) for r in fiber.reports),
            "  distinguished by: " + ", ".join(fiber.distinguished_by),
        ]
    lines.append(
        f"deformation classes equal type classes on all {len(ctx.records)} orbits: "
        + _status(corollary)
    )
    lines.append(f"match: {_status(match)}")
    lines += [f"  diff: {r.detail}" for r in checks if not r.passed]
    header = ["pair", "member", "orbit_size", "perp_parity", "h1_torsion", "h1_free_rank"]
    return _render(cfg, 0 if match else 1, doc, header, rows, lines)


def cmd_invariants(cfg: RunConfig) -> int:
    report = invariant_report(mask_from_lines(cfg.lines))
    fields = [(f.name, getattr(report, f.name)) for f in dataclasses.fields(report)]
    return _render_fields(cfg, 0, report.as_dict(), fields)


def cmd_export_gap(cfg: RunConfig) -> int:
    _emit("".join(cycle_notation(p) + "\n" for p in standard_generators()), cfg)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    results = run_all(workers=cfg.workers)
    passed = sum(r.passed for r in results)
    return _render(
        cfg,
        0 if passed == len(results) else 1,
        [dataclasses.asdict(r) for r in results],
        ["number", "name", "status"],
        [[r.number, r.name, _status(r.passed)] for r in results],
        [r.line() for r in results] + [f"{passed}/{len(results)} checks passed"],
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weyl27",
        description="Classify line arrangements on a general cubic surface under the Weyl group action.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=FORMATS, default="text")
        p.add_argument("--output", metavar="PATH", help="write the result to a file")
        if name in POOLED:
            p.add_argument(
                "--workers",
                type=int,
                default=1,
                help="worker processes; more than 1 forks a pool (default: 1)",
            )
        p.set_defaults(run=run)
        return p

    command("group", cmd_group, "build the group and check the generators")
    p = command("enumerate", cmd_enumerate, "enumerate orbit representatives")
    p.add_argument("--n", type=int, dest="n_filter", default=None, metavar="N",
                   help="only emit records with N lines (also caps the search)")
    command("classify", cmd_classify, "group orbits by combinatorial type")
    command("pairs", cmd_pairs, "report the fibers with more than one orbit")
    p = command("invariants", cmd_invariants, "lattice invariants of one arrangement")
    p.add_argument("lines", type=int, nargs="*", metavar="LINE",
                   help="line numbers in 1..27 (empty for the empty arrangement)")
    command("export-gap", cmd_export_gap, "write generators in cycle notation")
    command("verify", cmd_verify, "run the acceptance checks")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig(
            output_path=args.output,
            format=args.format,
            workers=getattr(args, "workers", 1),
            n_filter=getattr(args, "n_filter", None),
            lines=tuple(getattr(args, "lines", ())),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.run(cfg)
    except (OSError, ExpectationsError, WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
