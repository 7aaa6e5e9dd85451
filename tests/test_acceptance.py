"""Acceptance gate: every shipped claim, one pass/fail line each.

Run with -s to see the printed status lines alongside the assertions.
"""

import pytest

from weyl27 import checks
from weyl27.checks import run_all

CRITERIA = [
    (1, "group-construction"),
    (2, "line-system"),
    (3, "orbit-table"),
    (4, "power-set-partition"),
    (5, "type-fibers"),
    (6, "pair-orbit-sizes"),
    (7, "pair-invariants"),
    (8, "disjoint-five-orbits"),
    (9, "property-suites"),
    (10, "deformation-equals-type"),
]


@pytest.fixture(scope="module")
def results(ctx):
    return run_all(ctx=ctx)


def test_exactly_ten_criteria(results):
    assert [(r.number, r.name) for r in results] == CRITERIA


@pytest.mark.parametrize(("number", "name"), CRITERIA, ids=[c[1] for c in CRITERIA])
def test_criterion(results, number, name):
    result = results[number - 1]
    print(result.line())
    assert result.passed, result.detail


def test_property_suite_fails_a_non_canonical_certificate(ctx, monkeypatch):
    # packing the graph in its own vertex order labels one class many ways;
    # check 9's brute force must catch it
    def identity_packing(g):
        return f"{g.n}:{','.join(map(str, g.adj))}"

    monkeypatch.setattr(checks, "canonical_certificate", identity_packing)
    result = checks._check_properties(ctx)
    assert not result.passed
    assert "one isomorphism class got two certificates (n=3)" in result.detail
