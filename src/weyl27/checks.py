"""Acceptance checks shared by the verify subcommand and the test suite.

Each check is a function of the pipeline context and the frozen
expectations that returns its problems, one string each. CHECKS, at the end
of this module, lists the checks in order with each one's name and passing
detail, and one loop turns a row into a CheckResult: passed when there are
no problems, with the problems joined by "; " as the detail, or else the
passing detail. Details are deterministic (no timings or paths in the text,
so verify output is byte-identical across runs and worker counts). Time
bounds are enforced as pass/fail conditions without being printed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import gcd
from typing import Iterable, Sequence

import numpy as np

from . import lattice
from .expectations import Expectations, load_expectations
from .graphs import (
    IntersectionGraph,
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

# Sizes of the property suites.
PROPERTY_SEED = 990817
SNF_TRIALS = 1000  # random matrices put in Smith form
GRAM_TRIALS = 100  # random Gram matrices tested for parity
CERTIFICATE_MAX_VERTICES = 5  # all graphs up to this size get brute-force keys
INVARIANCE_MAX_N = 3  # orbits swept for constant invariants, by line count


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


def build_context(workers: int) -> PipelineContext:
    """Run the full pipeline, bypassing caches so the timings are honest.

    ctx.ls is a fresh build of the line system, timed here and read only by
    the checks; the pipeline's functions read build_line_system().
    """
    t0 = time.perf_counter()
    ls = build_line_system.__wrapped__()
    lines_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    group = generate_group(standard_generators())
    group_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    records = enumerate_all(group, workers=workers)
    enum_seconds = time.perf_counter() - t0

    certificates = [canonical_certificate(intersection_graph(r.mask)) for r in records]
    reports = [invariant_report(r.mask) for r in records]
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


def run_all(ctx: PipelineContext | None = None, workers: int = 1) -> list[CheckResult]:
    """Every check in CHECKS, in order. The expectations load before the
    context is built, so a bad expectations file fails at once."""
    exp = load_expectations()
    ctx = ctx or build_context(workers=workers)
    return _run(ctx, exp, range(1, len(CHECKS) + 1))


def pair_checks(ctx: PipelineContext, exp: Expectations) -> list[CheckResult]:
    """The rows PAIR_CHECKS selects, everything the pairs subcommand reports
    on: the coincident type fibers, their orbit sizes and invariants, and
    type plus invariants separating every orbit."""
    return _run(ctx, exp, PAIR_CHECKS)


def _run(ctx: PipelineContext, exp: Expectations, numbers: Iterable[int]) -> list[CheckResult]:
    """The CheckResult of each numbered row of CHECKS."""
    results = []
    for number in numbers:
        name, problems_of, passing = CHECKS[number - 1]
        problems = problems_of(ctx, exp)
        detail = "; ".join(problems) or passing.format(exp=exp, orbits=len(ctx.records))
        results.append(CheckResult(number, name, not problems, detail))
    return results


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


def _group(ctx: PipelineContext, exp: Expectations) -> list[str]:
    problems = group_problems(ctx.group, exp)
    if ctx.group_seconds >= GROUP_TIME_LIMIT:
        problems.append(f"closure took {ctx.group_seconds:.1f}s (limit {GROUP_TIME_LIMIT:.0f}s)")
    return problems


def _lines(ctx: PipelineContext, exp: Expectations) -> list[str]:
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
        pairs = product(range(LINE_COUNT), repeat=2)
        if any(ls.inter[g[i]][g[j]] != ls.inter[i][j] for i, j in pairs):
            problems.append(f"generator {k} does not preserve the matrix")
    if ctx.lines_seconds >= LINES_TIME_LIMIT:
        problems.append(f"construction took {ctx.lines_seconds:.2f}s (limit {LINES_TIME_LIMIT:.0f}s)")
    return problems


def _table(ctx: PipelineContext, exp: Expectations) -> list[str]:
    problems = []
    counts = [0] * (LINE_COUNT + 1)
    for r in ctx.records:
        counts[r.n] += 1
    if tuple(counts) != exp.orbit_counts:
        diffs = [
            f"n={n}: {got} != {want}"
            for n, (got, want) in enumerate(zip(counts, exp.orbit_counts))
            if got != want
        ]
        problems.append("counts mismatch (" + ", ".join(diffs) + ")")
    if len(ctx.records) != exp.total_orbits:
        problems.append(f"total {len(ctx.records)} != {exp.total_orbits}")
    limit = ENUM_TIME_LIMIT_PARALLEL if ctx.workers >= 8 else ENUM_TIME_LIMIT_SERIAL
    if ctx.enum_seconds >= limit:
        problems.append(f"enumeration took {ctx.enum_seconds:.0f}s (limit {limit:.0f}s)")
    return problems


def _partition(ctx: PipelineContext, exp: Expectations) -> list[str]:
    problems = []
    total = sum(r.orbit_size for r in ctx.records)
    if total != exp.power_set_size:
        problems.append(f"orbit sizes sum to {total} != {exp.power_set_size}")
    bad = [r for r in ctx.records if exp.group_order % r.orbit_size]
    if bad:
        problems.append(f"{len(bad)} orbit sizes do not divide {exp.group_order}")
    return problems


def _fibers(ctx: PipelineContext, exp: Expectations) -> list[str]:
    problems = []
    fibers = find_zariski_pairs(ctx.records, ctx.certificates)
    if len(fibers) != len(exp.zariski_pairs):
        problems.append(f"{len(fibers)} fibers of size > 1, expected {len(exp.zariski_pairs)}")
    for fiber, want in zip(fibers, exp.zariski_pairs):
        got = tuple(r.min_rep for r in fiber.members)
        if got != want.members:
            problems.append(f"fiber members {got} != {want.members}")
    oversized = [f for f in fibers if len(f.members) != 2]
    if oversized:
        problems.append(f"{len(oversized)} fibers are not of size 2")
    return problems


def _expected_members(ctx: PipelineContext, exp: Expectations) -> list[tuple]:
    """(pair, k, lines, i) for member k of each expected pair: i indexes the
    member's record in ctx.records, None when it is not a representative."""
    index = {r.mask: i for i, r in enumerate(ctx.records)}
    return [
        (pair, k, member, index.get(mask_from_lines(member)))
        for pair in exp.zariski_pairs
        for k, member in enumerate(pair.members)
    ]


def _orbit_sizes(ctx: PipelineContext, exp: Expectations) -> list[str]:
    problems = []
    for pair, k, member, i in _expected_members(ctx, exp):
        if i is None:
            problems.append(f"{list(member)} is not a minimal representative")
        elif ctx.records[i].orbit_size != pair.orbit_sizes[k]:
            problems.append(
                f"orbit of {list(member)} has size {ctx.records[i].orbit_size}"
                f" != {pair.orbit_sizes[k]}"
            )
    return problems


def _invariants(ctx: PipelineContext, exp: Expectations) -> list[str]:
    def show(value):
        return list(value) if isinstance(value, tuple) else value

    problems = []
    for pair, k, member, i in _expected_members(ctx, exp):
        if i is None:
            problems.append(f"no report for {list(member)}")
            continue
        for field, label in (
            ("perp_parity", "parity"),
            ("h1_torsion", "h1 torsion"),
            ("h1_free_rank", "h1 free rank"),
        ):
            want = getattr(pair, field)
            got = getattr(ctx.reports[i], field)
            if want is not None and got != want[k]:
                problems.append(
                    f"{label} of {list(member)} is {show(got)}, expected {show(want[k])}"
                )
    return problems


def _disjoint_five(ctx: PipelineContext, exp: Expectations) -> list[str]:
    sizes = tuple(
        r.orbit_size
        for r in ctx.records
        if r.n == 5 and all(ctx.ls.meet(a, b) == 0 for a, b in combinations(r.min_rep, 2))
    )
    want = exp.disjoint_five_orbit_sizes
    if len(sizes) != len(want):
        return [f"{len(sizes)} orbits of five disjoint lines, expected {len(want)}"]
    if sizes != want:
        return [f"orbit sizes {sizes} != {want}"]
    return []


# --- property suites with independent oracles ---


def _matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    cols = len(b[0]) if b else 0
    return [
        [sum(row[k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for row in a
    ]


def _snf_suite() -> str | None:
    rng = random.Random(PROPERTY_SEED)
    for trial in range(SNF_TRIALS):
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
        if any(x for i, row in enumerate(res.d) for j, x in enumerate(row) if i != j):
            return f"off-diagonal entry at trial {trial}"
        if any(x < 0 for x in diag):
            return f"negative divisor at trial {trial}"
        nz = [x for x in diag if x]
        if diag[: len(nz)] != nz:
            return f"zero before nonzero divisor at trial {trial}"
        for x, y in zip(nz, nz[1:]):
            if y % x:
                return f"divisibility chain broken at trial {trial}"
        if (nz[0] if nz else 0) != gcd(*(x for row in a for x in row)):
            return f"first divisor is not the entry gcd at trial {trial}"
    return None


def _is_even_suite() -> str | None:
    rng = random.Random(PROPERTY_SEED + 1)
    for trial in range(GRAM_TRIALS):
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


def _brute_keys(n: int) -> np.ndarray:
    """Isomorphism class key of every graph on n vertices, by brute force.

    Graph g has edge p when bit p of g is set, p indexing the pairs (i, j),
    i < j, in row order. Its key is the least, over all n! vertex orders,
    of the integer whose bits, most significant first, are the upper
    triangle of the reordered adjacency matrix read column by column.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = len(pairs)
    index = {pair: p for p, pair in enumerate(pairs)}
    # reading[o, t]: the pair whose edge is bit t of the string under order o
    rows = [
        [index[min(o[i], o[k]), max(o[i], o[k])] for k in range(n) for i in range(k)]
        for o in permutations(range(n))
    ]
    reading = np.array(rows, dtype=np.intp).reshape(len(rows), m)
    edges = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(np.uint8)
    weights = (1 << np.arange(m - 1, -1, -1)).astype(np.min_scalar_type((1 << m) - 1))
    keys = edges[:, reading[0]] @ weights
    for order in reading[1:]:
        np.minimum(keys, edges[:, order] @ weights, out=keys)
    return keys


def _certificate_suite() -> str | None:
    for n in range(CERTIFICATE_MAX_VERTICES + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keys = _brute_keys(n).tolist()
        brute_to_cert: dict[int, str] = {}
        cert_to_brute: dict[str, int] = {}
        for edges_bits in range(1 << len(pairs)):
            adj = [0] * n
            for p, (i, j) in enumerate(pairs):
                if (edges_bits >> p) & 1:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            cert = canonical_certificate(IntersectionGraph(n=n, adj=tuple(adj)))
            brute = keys[edges_bits]
            if brute_to_cert.setdefault(brute, cert) != cert:
                return f"one isomorphism class got two certificates (n={n})"
            if cert_to_brute.setdefault(cert, brute) != brute:
                return f"two isomorphism classes share a certificate (n={n})"
    return None


def _parity_and_h1(mask: int) -> tuple:
    report = invariant_report(mask)
    return report.perp_parity, report.h1_torsion, report.h1_free_rank


def _invariance_suite(ctx: PipelineContext) -> str | None:
    checked = 0
    for r in ctx.records:
        if r.n > INVARIANCE_MAX_N:
            break
        base = _parity_and_h1(r.mask)
        members = orbit_masks(r.mask, ctx.group)
        if len(members) != r.orbit_size:
            return f"orbit of {list(r.min_rep)} has {len(members)} members, size says {r.orbit_size}"
        for member in members:
            if _parity_and_h1(member) != base:
                return f"invariants vary inside the orbit of {list(r.min_rep)}"
            checked += 1
    if checked != sum(r.orbit_size for r in ctx.records if r.n <= INVARIANCE_MAX_N):
        return "invariance sweep missed members"
    return None


def _properties(ctx: PipelineContext, exp: Expectations) -> list[str]:
    failures = (_snf_suite(), _is_even_suite(), _certificate_suite(), _invariance_suite(ctx))
    return [failure for failure in failures if failure]


def _corollary(ctx: PipelineContext, exp: Expectations) -> list[str]:
    classes = len({
        (cert, rep.perp_parity, rep.h1_torsion, rep.h1_free_rank)
        for cert, rep in zip(ctx.certificates, ctx.reports)
    })
    if classes == len(ctx.records):
        return []
    return [f"only {classes} distinct (type, invariants) classes for {len(ctx.records)} orbits"]


# The acceptance checks in order, check k in row k - 1: its name, the
# function returning its problems, and its detail when it passes, a
# str.format template over exp and orbits (the number of records).
CHECKS = (
    ("group-construction", _group,
     "order {exp.group_order}, six generator cycles match"),
    ("line-system", _lines,
     "27 classes, symmetric matrix, diagonal -1, each line meets 10, generators preserve it"),
    ("orbit-table", _table,
     "per-n counts match the published table; total {exp.total_orbits}"),
    ("power-set-partition", _partition,
     "orbit sizes sum to 2^27 and all divide {exp.group_order}"),
    ("type-fibers", _fibers,
     "exactly two fibers of size > 1, both of size 2, with the expected representatives"),
    ("pair-orbit-sizes", _orbit_sizes,
     "orbit sizes 432, 216, 432, 432 for the four representatives"),
    ("pair-invariants", _invariants,
     "parity odd/even on the 5-line pair; h1 torsion [2]/[] with free rank 0 on the 6-line pair"),
    ("disjoint-five-orbits", _disjoint_five,
     "five pairwise-disjoint lines fall into exactly 2 orbits (432 and 216)"),
    ("property-suites", _properties,
     f"snf identities on {SNF_TRIALS} random matrices; parity vs box on {GRAM_TRIALS} grams;"
     f" certificates match brute force on all graphs up to {CERTIFICATE_MAX_VERTICES} vertices;"
     f" parity and h1 constant on every orbit at n <= {INVARIANCE_MAX_N}"),
    ("deformation-equals-type", _corollary,
     "type plus invariants separate all {orbits} orbits"),
)

# The rows the pairs subcommand reports.
PAIR_CHECKS = (5, 6, 7, 10)
