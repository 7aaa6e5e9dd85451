"""Frozen expected values the pipeline is verified against.

Everything the verifier diffs against lives in one JSON file
(data/expectations.json) instead of being scattered through code, so the
provenance of every expected number is auditable in one place. The env var
WEYL27_EXPECTATIONS overrides the file path. A malformed file raises
ExpectationsError, which the CLI reports as one error line.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from importlib import resources

from .lines import LINE_COUNT

ENV_VAR = "WEYL27_EXPECTATIONS"


@dataclass(frozen=True)
class PairExpectation:
    """One expected fiber of size two, with the invariant values that split it.

    Fields holding None mean the file states no expectation for that
    invariant on this pair.
    """

    members: tuple[tuple[int, ...], ...]
    orbit_sizes: tuple[int, ...]
    perp_parity: tuple[str, ...] | None
    h1_torsion: tuple[tuple[int, ...], ...] | None
    h1_free_rank: tuple[int, ...] | None


@dataclass(frozen=True)
class Expectations:
    group_order: int
    generator_cycles: tuple[str, ...]
    orbit_counts: tuple[int, ...]
    total_orbits: int
    power_set_size: int
    zariski_pairs: tuple[PairExpectation, ...]
    disjoint_five_orbit_sizes: tuple[int, ...]


class ExpectationsError(ValueError):
    """The expectations file is not valid JSON or lacks what the checks read."""


def _per_member(entry: dict, key: str, members: tuple, where: str) -> tuple | None:
    """entry[key] as a tuple of one value per member, lists made tuples;
    None when the key is absent or null."""
    values = entry.get(key)
    if values is None:
        return None
    if not isinstance(values, list) or len(values) != len(members):
        raise ExpectationsError(f"{where}: {key} needs one entry per member ({len(members)})")
    return tuple(tuple(v) if isinstance(v, list) else v for v in values)


def _parse(raw, source: str) -> Expectations:
    missing = [f.name for f in fields(Expectations) if f.name not in raw]
    if missing:
        raise ExpectationsError(f"{source}: missing {', '.join(missing)}")
    pairs = []
    for number, entry in enumerate(raw["zariski_pairs"], start=1):
        where = f"{source}: zariski pair {number}"
        members = tuple(tuple(m) for m in entry["members"])
        for member in members:
            if len(set(member)) != len(member) or not all(
                type(x) is int and 1 <= x <= LINE_COUNT for x in member
            ):
                raise ExpectationsError(
                    f"{where}: member {list(member)} needs distinct lines in 1..{LINE_COUNT}"
                )
        orbit_sizes = _per_member(entry, "orbit_sizes", members, where)
        if orbit_sizes is None:
            raise ExpectationsError(f"{where}: missing orbit_sizes")
        pairs.append(
            PairExpectation(
                members=members,
                orbit_sizes=orbit_sizes,
                perp_parity=_per_member(entry, "perp_parity", members, where),
                h1_torsion=_per_member(entry, "h1_torsion", members, where),
                h1_free_rank=_per_member(entry, "h1_free_rank", members, where),
            )
        )
    return Expectations(
        group_order=int(raw["group_order"]),
        generator_cycles=tuple(raw["generator_cycles"]),
        orbit_counts=tuple(raw["orbit_counts"]),
        total_orbits=int(raw["total_orbits"]),
        power_set_size=int(raw["power_set_size"]),
        zariski_pairs=tuple(pairs),
        disjoint_five_orbit_sizes=tuple(raw["disjoint_five_orbit_sizes"]),
    )


def load_expectations() -> Expectations:
    """Load expectations from $WEYL27_EXPECTATIONS, or else the file shipped
    with the package. A file that is not JSON, or misses or mistypes a value
    the checks read, raises ExpectationsError."""
    path = os.environ.get(ENV_VAR)
    if path:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    else:
        path = "data/expectations.json"
        text = resources.files("weyl27").joinpath(path).read_text("utf-8")
    try:
        return _parse(json.loads(text), path)
    except ExpectationsError:
        raise
    except json.JSONDecodeError as exc:
        raise ExpectationsError(f"{path}: not valid JSON: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ExpectationsError(f"{path}: malformed value: {exc!r}") from None
