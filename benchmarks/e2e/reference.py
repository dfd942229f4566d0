"""Frozen reference data for the end-to-end benchmark.

``fixtures/posix_cells.json`` holds the 171 ``PairCellData.to_dict()``
records of the posix matrix (ncores 4, tests_per_path 1) with the
seconds each pair took when the fixture was made.  It is the known
answer for every verdict, the content of the warm caches the workloads
seed, and the source of the cost strata the seeded draws are made from.
``make_fixture.py`` regenerates it.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
FIXTURE_PATH = HERE / "fixtures" / "posix_cells.json"
COMMITTED_HEATMAP = REPO / "results" / "fig6_heatmap.json"
FIXTURE_SCHEMA = "repro.e2e-fixture/1"

#: Strata by the reference test count: the 100 pairs with fewest tests,
#: the next 50, and the top 21.
LIGHT, MEDIUM = 100, 50


class StaleFixtureError(RuntimeError):
    """The fixture no longer describes what the tree computes."""


def add_src_to_path() -> None:
    """Make ``repro`` importable from a bare checkout (``src/`` layout)."""
    src = str(REPO / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def pair_key(op0: str, op1: str) -> str:
    """The unordered pair's name, as ``PairJob.key`` spells it for posix."""
    return "|".join(sorted((op0, op1)))


@dataclass(frozen=True)
class RefPair:
    """One pair's known answer, with its reference cost."""

    key: str
    cell: dict
    ref_s: float

    @property
    def ops(self) -> tuple[str, str]:
        return self.cell["op0"], self.cell["op1"]


@dataclass(frozen=True)
class Fixture:
    ops: tuple[str, ...]
    kernels: tuple[str, ...]
    pairs: tuple[RefPair, ...]  # matrix order
    heatmap_sha256: str

    @cached_property
    def by_key(self) -> dict[str, RefPair]:
        return {pair.key: pair for pair in self.pairs}

    def strata(self) -> dict[str, list[RefPair]]:
        """light / medium / heavy, each sorted by reference cost."""
        ranked = sorted(self.pairs, key=lambda p: (p.cell["total"], p.key))
        cut = {
            "light": ranked[:LIGHT],
            "medium": ranked[LIGHT : LIGHT + MEDIUM],
            "heavy": ranked[LIGHT + MEDIUM :],
        }
        return {
            name: sorted(pairs, key=lambda p: (p.ref_s, p.key))
            for name, pairs in cut.items()
        }


def load_fixture(path: Path = FIXTURE_PATH) -> Fixture:
    with open(path) as f:
        raw = json.load(f)
    if raw.get("schema") != FIXTURE_SCHEMA:
        raise StaleFixtureError(f"{path}: not a {FIXTURE_SCHEMA} file")
    pairs = tuple(
        RefPair(pair_key(p["cell"]["op0"], p["cell"]["op1"]), p["cell"], p["ref_s"])
        for p in raw["pairs"]
    )
    return Fixture(
        ops=tuple(raw["ops"]),
        kernels=tuple(raw["kernels"]),
        pairs=pairs,
        heatmap_sha256=raw["heatmap_sha256"],
    )


def stripped_heatmap(kernels, ops, cells: list[dict]) -> dict:
    """The result projection of a posix heatmap over ``ops`` built from
    cell dicts in matrix order."""
    from repro.bench.heatmap import HeatmapResult
    from repro.bench.report import heatmap_to_dict, strip_volatile_heatmap
    from repro.pipeline.jobs import PairCellData, merge_residues

    data = [PairCellData.from_dict(cell) for cell in cells]
    residues = merge_residues(data)
    for kernel in kernels:
        residues.setdefault(kernel, {})
    result = HeatmapResult(
        kernels=tuple(kernels),
        cells=data,
        residues=residues,
        elapsed_seconds=0.0,
        op_names=list(ops),
    )
    return strip_volatile_heatmap(heatmap_to_dict(result))


def heatmap_digest(stripped: dict) -> str:
    from repro.service.store import canonical_bytes

    return hashlib.sha256(canonical_bytes(stripped)).hexdigest()


def check_fixture_fresh(fixture: Fixture) -> None:
    """Refuse to run on a fixture that disagrees with the committed
    Figure 6 artifact (or, in a checkout without ``results/``, with the
    digest ``make_fixture.py`` recorded after making that comparison)."""
    stripped = stripped_heatmap(fixture.kernels, fixture.ops, [p.cell for p in fixture.pairs])
    if heatmap_digest(stripped) != fixture.heatmap_sha256:
        raise StaleFixtureError("fixture cells do not match their recorded heatmap digest")
    if COMMITTED_HEATMAP.exists():
        from repro.bench.report import strip_volatile_heatmap

        with open(COMMITTED_HEATMAP) as f:
            committed = strip_volatile_heatmap(json.load(f))
        if committed != stripped:
            raise StaleFixtureError(
                f"fixture disagrees with {COMMITTED_HEATMAP}; rerun make_fixture.py"
            )


def verdict(cell: dict) -> dict:
    """What a cell is compared on: everything except ``solver_stats``."""
    return {k: v for k, v in cell.items() if k != "solver_stats"}


def cell_matches(fixture_cell: dict, got: dict) -> bool:
    return verdict(fixture_cell) == verdict(got)


# ----------------------------------------------------------------------
# Seeded draws


def cost_bins(pairs: list[RefPair], count: int) -> list[list[RefPair]]:
    """A cost-sorted stratum cut into ``count`` contiguous bins."""
    count = min(count, len(pairs))
    bounds = [round(i * len(pairs) / count) for i in range(count + 1)]
    return [pairs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def stratified_draw(rng: random.Random, pairs: list[RefPair], count: int) -> list[RefPair]:
    """``count`` pairs from a cost-sorted stratum, one from each of
    ``count`` contiguous cost bins, so every seed draws a set of about
    the same total cost and the same cost distribution."""
    return [rng.choice(bin_) for bin_ in cost_bins(pairs, count)] if count > 0 else []


def cost_shape(draw: list[RefPair]) -> tuple[float, float, float]:
    """Sum, median and upper quartile of a draw's reference costs: what
    ``wall_s``, ``op_p50_ms`` and ``op_tail_ms`` will follow."""
    costs = sorted(pair.ref_s for pair in draw)
    return sum(costs), costs[(len(costs) - 1) // 2], costs[(3 * len(costs) - 1) // 4]


def balanced_draw(
    rng: random.Random,
    strata: dict[str, list[RefPair]],
    counts: dict[str, int],
    tolerance: float = 0.02,
    tries: int = 2000,
) -> list[RefPair]:
    """A stratified draw whose reference-cost sum, median and upper
    quartile are each within ``tolerance`` of those of the draw that
    takes the middle pair of every bin.

    One heavy pair costs 2 to 10 s, so an unconstrained draw would move
    the wall clock by a third between seeds; redrawing until the shape
    lands in the window keeps seeds comparable while every seed still
    gets different pairs.  The closest draw wins if none lands.
    """
    wanted = {name: count for name, count in counts.items() if count > 0}
    centre = cost_shape(
        [
            bin_[len(bin_) // 2]
            for name, count in wanted.items()
            for bin_ in cost_bins(strata[name], count)
        ]
    )
    best, best_miss = [], float("inf")
    for _ in range(tries):
        draw = [
            pair
            for name, count in wanted.items()
            for pair in stratified_draw(rng, strata[name], count)
        ]
        miss = max(abs(got / want - 1) for got, want in zip(cost_shape(draw), centre))
        if miss < best_miss:
            best, best_miss = draw, miss
        if miss <= tolerance:
            break
    rng.shuffle(best)
    return best
