"""Acceptance checks shared by the verify subcommand and the test suite.

Each check compares the freshly computed pipeline against the frozen
expectations and returns a CheckResult with a deterministic detail string
(no timings or paths in the text, so verify output is byte-identical across
runs and worker counts). Time bounds are enforced as pass/fail conditions
without being printed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import permutations, product
from math import gcd
from typing import Sequence

from . import lattice
from .expectations import Expectations, load_expectations
from .graphs import (
    IntersectionGraph,
    _packed_hex,
    canonical_certificate,
    find_zariski_pairs,
    intersection_graph,
)
from .invariants import invariant_report
from .lines import (
    LINE_COUNT,
    LineSystem,
    PermutationGroup,
    build_line_system,
    cycle_notation,
    generate_group,
    standard_generators,
)
from .orbits import OrbitRecord, enumerate_all, mask_from_lines, orbit_masks

# Runtime limits, in seconds, from the acceptance contract.
GROUP_TIME_LIMIT = 10.0
LINES_TIME_LIMIT = 1.0
ENUM_TIME_LIMIT_SERIAL = 600.0
ENUM_TIME_LIMIT_PARALLEL = 120.0

PROPERTY_SEED = 990817


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.number:>2} {self.name}: {self.detail}"


@dataclass
class PipelineContext:
    """Everything the checks need, computed once."""

    ls: LineSystem
    group: PermutationGroup
    records: list[OrbitRecord]
    certificates: list[str]
    reports: list
    workers: int
    lines_seconds: float
    group_seconds: float
    enum_seconds: float


def build_context(workers: int = 1) -> PipelineContext:
    """Run the full pipeline, bypassing caches so the timings are honest."""
    t0 = time.perf_counter()
    ls = build_line_system.__wrapped__()
    lines_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    group = generate_group(standard_generators(ls))
    group_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    records = enumerate_all(group, workers=workers)
    enum_seconds = time.perf_counter() - t0

    certificates = [
        canonical_certificate(intersection_graph(r.mask, ls)) for r in records
    ]
    reports = [invariant_report(r.mask, ls) for r in records]
    return PipelineContext(
        ls=ls,
        group=group,
        records=records,
        certificates=certificates,
        reports=reports,
        workers=workers,
        lines_seconds=lines_seconds,
        group_seconds=group_seconds,
        enum_seconds=enum_seconds,
    )


def run_all(
    ctx: PipelineContext | None = None,
    workers: int = 1,
    exp: Expectations | None = None,
) -> list[CheckResult]:
    exp = exp or load_expectations()
    ctx = ctx or build_context(workers=workers)
    fibers, sizes, invariants, corollary = pair_checks(ctx, exp)
    return [
        _check_group(ctx, exp),
        _check_lines(ctx),
        _check_table(ctx, exp),
        _check_partition(ctx, exp),
        fibers,
        sizes,
        invariants,
        _check_disjoint_five(ctx, exp),
        _check_properties(ctx),
        corollary,
    ]


def pair_checks(ctx: PipelineContext, exp: Expectations) -> list[CheckResult]:
    """Checks 5, 6, 7 and 10, everything the pairs subcommand reports on:
    the coincident type fibers, their orbit sizes and invariants, and type
    plus invariants separating every orbit."""
    return [
        _check_fibers(ctx, exp),
        _check_orbit_sizes(ctx, exp),
        _check_invariants(ctx, exp),
        _check_corollary(ctx),
    ]


def group_problems(group: PermutationGroup, exp: Expectations) -> list[str]:
    """Where the group's order and generator cycles differ from exp."""
    problems = []
    if group.order != exp.group_order:
        problems.append(f"order {group.order} != {exp.group_order}")
    cycles = tuple(cycle_notation(g) for g in group.generators)
    if len(cycles) != len(exp.generator_cycles):
        problems.append(f"{len(cycles)} generators, expected {len(exp.generator_cycles)}")
    for i, (got, want) in enumerate(zip(cycles, exp.generator_cycles), start=1):
        if got != want:
            problems.append(f"generator {i}: {got} != {want}")
    return problems


def _check_group(ctx: PipelineContext, exp: Expectations) -> CheckResult:
    problems = group_problems(ctx.group, exp)
    if ctx.group_seconds >= GROUP_TIME_LIMIT:
        problems.append(f"closure took {ctx.group_seconds:.1f}s (limit {GROUP_TIME_LIMIT:.0f}s)")
    return CheckResult(
        1,
        "group-construction",
        not problems,
        "; ".join(problems) or f"order {exp.group_order}, six generator cycles match",
    )


def _check_lines(ctx: PipelineContext) -> CheckResult:
    ls = ctx.ls
    problems = []
    if len(ls.classes) != LINE_COUNT:
        problems.append(f"{len(ls.classes)} classes")
    for i in range(LINE_COUNT):
        if ls.inter[i][i] != -1:
            problems.append(f"diagonal at {i + 1} is {ls.inter[i][i]}")
            break
    for i in range(LINE_COUNT):
        for j in range(i):
            if ls.inter[i][j] != ls.inter[j][i]:
                problems.append(f"asymmetry at ({i + 1},{j + 1})")
                break
    degrees = [sum(ls.inter[i][j] for j in range(LINE_COUNT) if j != i) for i in range(LINE_COUNT)]
    if any(d != 10 for d in degrees):
        problems.append("some line does not meet exactly 10 others")
    for k, g in enumerate(ctx.group.generators, start=1):
        ok = all(
            ls.inter[g[i]][g[j]] == ls.inter[i][j]
            for i in range(LINE_COUNT)
            for j in range(LINE_COUNT)
        )
        if not ok:
            problems.append(f"generator {k} does not preserve the matrix")
    if ctx.lines_seconds >= LINES_TIME_LIMIT:
        problems.append(f"construction took {ctx.lines_seconds:.2f}s (limit {LINES_TIME_LIMIT:.0f}s)")
    return CheckResult(
        2,
        "line-system",
        not problems,
        "; ".join(problems)
        or "27 classes, symmetric matrix, diagonal -1, each line meets 10, generators preserve it",
    )


def _counts_by_n(records: Sequence[OrbitRecord]) -> list[int]:
    counts = [0] * (LINE_COUNT + 1)
    for r in records:
        counts[r.n] += 1
    return counts


def _check_table(ctx: PipelineContext, exp: Expectations) -> CheckResult:
    problems = []
    counts = _counts_by_n(ctx.records)
    if tuple(counts) != exp.orbit_counts:
        diffs = [
            f"n={n}: {got} != {want}"
            for n, (got, want) in enumerate(zip(counts, exp.orbit_counts))
            if got != want
        ]
        problems.append("counts mismatch (" + ", ".join(diffs) + ")")
    if len(ctx.records) != exp.total_orbits:
        problems.append(f"total {len(ctx.records)} != {exp.total_orbits}")
    limit = (
        ENUM_TIME_LIMIT_PARALLEL if ctx.workers >= 8 else ENUM_TIME_LIMIT_SERIAL
    )
    if ctx.enum_seconds >= limit:
        problems.append(f"enumeration took {ctx.enum_seconds:.0f}s (limit {limit:.0f}s)")
    return CheckResult(
        3,
        "orbit-table",
        not problems,
        "; ".join(problems) or f"per-n counts match the published table; total {exp.total_orbits}",
    )


def _check_partition(ctx: PipelineContext, exp: Expectations) -> CheckResult:
    problems = []
    total = sum(r.orbit_size for r in ctx.records)
    if total != exp.power_set_size:
        problems.append(f"orbit sizes sum to {total} != {exp.power_set_size}")
    bad = [r for r in ctx.records if exp.group_order % r.orbit_size]
    if bad:
        problems.append(f"{len(bad)} orbit sizes do not divide {exp.group_order}")
    return CheckResult(
        4,
        "power-set-partition",
        not problems,
        "; ".join(problems)
        or f"orbit sizes sum to 2^27 and all divide {exp.group_order}",
    )


def _check_fibers(ctx: PipelineContext, exp: Expectations) -> CheckResult:
    problems = []
    fibers = find_zariski_pairs(ctx.records, ctx.ls, certificates=ctx.certificates)
    if len(fibers) != len(exp.zariski_pairs):
        problems.append(f"{len(fibers)} fibers of size > 1, expected {len(exp.zariski_pairs)}")
    for fiber, want in zip(fibers, exp.zariski_pairs):
        got = tuple(r.min_rep for r in fiber.members)
        if got != want.members:
            problems.append(f"fiber members {got} != {want.members}")
    oversized = [f for f in fibers if len(f.members) != 2]
    if oversized:
        problems.append(f"{len(oversized)} fibers are not of size 2")
    return CheckResult(
        5,
        "type-fibers",
        not problems,
        "; ".join(problems)
        or "exactly two fibers of size > 1, both of size 2, with the expected representatives",
    )


def _record_by_lines(ctx: PipelineContext, lines: Sequence[int]) -> OrbitRecord | None:
    mask = mask_from_lines(lines)
    for r in ctx.records:
        if r.mask == mask:
            return r
    return None


def _check_orbit_sizes(ctx: PipelineContext, exp: Expectations) -> CheckResult:
    problems = []
    for pair in exp.zariski_pairs:
        for member, want in zip(pair.members, pair.orbit_sizes):
            record = _record_by_lines(ctx, member)
            if record is None:
                problems.append(f"{list(member)} is not a minimal representative")
            elif record.orbit_size != want:
                problems.append(f"orbit of {list(member)} has size {record.orbit_size} != {want}")
    return CheckResult(
        6,
        "pair-orbit-sizes",
        not problems,
        "; ".join(problems) or "orbit sizes 432, 216, 432, 432 for the four representatives",
    )


def _check_invariants(ctx: PipelineContext, exp: Expectations) -> CheckResult:
    problems = []
    by_mask = {r.mask: rep for r, rep in zip(ctx.records, ctx.reports)}
    for pair in exp.zariski_pairs:
        for idx, member in enumerate(pair.members):
            report = by_mask.get(mask_from_lines(member))
            if report is None:
                problems.append(f"no report for {list(member)}")
                continue
            if pair.perp_parity and report.perp_parity != pair.perp_parity[idx]:
                problems.append(
                    f"parity of {list(member)} is {report.perp_parity},"
                    f" expected {pair.perp_parity[idx]}"
                )
            if pair.h1_torsion is not None and report.h1_torsion != pair.h1_torsion[idx]:
                problems.append(
                    f"h1 torsion of {list(member)} is {list(report.h1_torsion)},"
                    f" expected {list(pair.h1_torsion[idx])}"
                )
            if pair.h1_free_rank is not None and report.h1_free_rank != pair.h1_free_rank[idx]:
                problems.append(
                    f"h1 free rank of {list(member)} is {report.h1_free_rank},"
                    f" expected {pair.h1_free_rank[idx]}"
                )
    return CheckResult(
        7,
        "pair-invariants",
        not problems,
        "; ".join(problems)
        or "parity odd/even on the 5-line pair; h1 torsion [2]/[] with free rank 0 on the 6-line pair",
    )


def _check_disjoint_five(ctx: PipelineContext, exp: Expectations) -> CheckResult:
    problems = []
    disjoint = []
    for r in ctx.records:
        if r.n != 5:
            continue
        lines = r.min_rep
        if all(
            ctx.ls.meet(a, b) == 0 for i, a in enumerate(lines) for b in lines[i + 1 :]
        ):
            disjoint.append(r)
    sizes = tuple(r.orbit_size for r in disjoint)
    if len(disjoint) != len(exp.disjoint_five_orbit_sizes):
        problems.append(f"{len(disjoint)} orbits of five disjoint lines, expected 2")
    elif sizes != exp.disjoint_five_orbit_sizes:
        problems.append(f"orbit sizes {sizes} != {exp.disjoint_five_orbit_sizes}")
    return CheckResult(
        8,
        "disjoint-five-orbits",
        not problems,
        "; ".join(problems) or "five pairwise-disjoint lines fall into exactly 2 orbits (432 and 216)",
    )


# --- criterion 9: property suites with independent oracles ---


def _matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    cols = len(b[0]) if b else 0
    return [
        [sum(row[k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for row in a
    ]


def _snf_suite(trials: int = 1000) -> str | None:
    rng = random.Random(PROPERTY_SEED)
    for trial in range(trials):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        res = lattice.smith_normal_form(a)
        ua = _matmul(res.u, a)
        uav = _matmul(ua, res.v)
        if tuple(map(tuple, uav)) != res.d:
            return f"u*a*v != d at trial {trial}"
        if abs(lattice.det(res.u)) != 1 or abs(lattice.det(res.v)) != 1:
            return f"non-unimodular transform at trial {trial}"
        diag = [res.d[i][i] for i in range(min(m, n))]
        for i, row in enumerate(res.d):
            for j, x in enumerate(row):
                if i != j and x:
                    return f"off-diagonal entry at trial {trial}"
        if any(x < 0 for x in diag):
            return f"negative divisor at trial {trial}"
        nz = [x for x in diag if x]
        if diag[: len(nz)] != nz:
            return f"zero before nonzero divisor at trial {trial}"
        for x, y in zip(nz, nz[1:]):
            if y % x:
                return f"divisibility chain broken at trial {trial}"
        flat_gcd = 0
        for row in a:
            for x in row:
                flat_gcd = gcd(flat_gcd, x)
        if (nz[0] if nz else 0) != flat_gcd:
            return f"first divisor is not the entry gcd at trial {trial}"
    return None


def _is_even_suite(trials: int = 100) -> str | None:
    rng = random.Random(PROPERTY_SEED + 1)
    for trial in range(trials):
        n = rng.randint(1, 4)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = rng.randint(-4, 4)
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-4, 4)
        brute = all(
            sum(x[i] * g[i][j] * x[j] for i in range(n) for j in range(n)) % 2 == 0
            for x in product(range(-2, 3), repeat=n)
        )
        if brute != lattice.is_even(g):
            return f"is_even disagrees with box evaluation at trial {trial}"
    return None


def _brute_certificate(g: IntersectionGraph) -> str:
    return min(_packed_hex(g.adj, perm) for perm in permutations(range(g.n)))


def _certificate_suite(max_vertices: int = 5) -> str | None:
    for n in range(max_vertices + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        brute_to_cert: dict[str, str] = {}
        cert_to_brute: dict[str, str] = {}
        for edges_bits in range(1 << len(pairs)):
            adj = [0] * n
            for p, (i, j) in enumerate(pairs):
                if (edges_bits >> p) & 1:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            g = IntersectionGraph(n=n, adj=tuple(adj))
            cert = canonical_certificate(g)
            brute = _brute_certificate(g)
            if brute_to_cert.setdefault(brute, cert) != cert:
                return f"one isomorphism class got two certificates (n={n})"
            if cert_to_brute.setdefault(cert, brute) != brute:
                return f"two isomorphism classes share a certificate (n={n})"
    return None


def _parity_and_h1(mask: int, ls: LineSystem) -> tuple:
    report = invariant_report(mask, ls)
    return report.perp_parity, report.h1_torsion, report.h1_free_rank


def _invariance_suite(ctx: PipelineContext) -> str | None:
    checked = 0
    for r in ctx.records:
        if r.n > 3:
            break
        base = _parity_and_h1(r.mask, ctx.ls)
        members = orbit_masks(r.mask, ctx.group)
        if len(members) != r.orbit_size:
            return f"orbit of {list(r.min_rep)} has {len(members)} members, size says {r.orbit_size}"
        for member in members:
            if _parity_and_h1(member, ctx.ls) != base:
                return f"invariants vary inside the orbit of {list(r.min_rep)}"
            checked += 1
    if checked != sum(r.orbit_size for r in ctx.records if r.n <= 3):
        return "invariance sweep missed members"
    return None


def _check_properties(ctx: PipelineContext) -> CheckResult:
    problems = []
    for failure in (
        _snf_suite(),
        _is_even_suite(),
        _certificate_suite(),
        _invariance_suite(ctx),
    ):
        if failure:
            problems.append(failure)
    return CheckResult(
        9,
        "property-suites",
        not problems,
        "; ".join(problems)
        or "snf identities on 1000 random matrices; parity vs box on 100 grams;"
        " certificates match brute force on all graphs up to 5 vertices;"
        " parity and h1 constant on every orbit at n <= 3",
    )


def _check_corollary(ctx: PipelineContext) -> CheckResult:
    tuples = {
        (cert, rep.perp_parity, rep.h1_torsion, rep.h1_free_rank)
        for cert, rep in zip(ctx.certificates, ctx.reports)
    }
    ok = len(tuples) == len(ctx.records)
    detail = (
        f"type plus invariants separate all {len(ctx.records)} orbits"
        if ok
        else f"only {len(tuples)} distinct (type, invariants) classes for {len(ctx.records)} orbits"
    )
    return CheckResult(10, "deformation-equals-type", ok, detail)
