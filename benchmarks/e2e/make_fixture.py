"""Regenerate ``fixtures/posix_cells.json``: three cold serial posix
matrices (about nine minutes), checked against the committed Figure 6
artifact before anything is written.  A pair's reference cost is the
least of its three times, because the seeded draws balance cost by it
and one noisy timing would unbalance every draw that pair is in.

    python benchmarks/e2e/make_fixture.py
"""

from __future__ import annotations

import json
import sys

import reference

PASSES = 3


def main() -> int:
    reference.add_src_to_path()
    from repro.bench.report import strip_volatile_heatmap
    from repro.pipeline.sweep import run_sweep

    seconds: dict[str, float] = {}

    def on_pair(job, cell, cached, elapsed):
        key = reference.pair_key(cell.op0, cell.op1)
        seconds[key] = min(elapsed, seconds.get(key, elapsed))
        print(f"{cell.op0}/{cell.op1}: {cell.total} tests, {elapsed:.2f}s", file=sys.stderr)

    for _ in range(PASSES):
        sweep = run_sweep(
            interface="posix", ncores=4, tests_per_path=1, backend="serial", on_pair=on_pair
        )
    fixture = reference.Fixture(
        ops=tuple(sweep.op_names),
        kernels=tuple(sweep.kernels),
        pairs=tuple(
            reference.RefPair(key, cell.to_dict(), round(seconds[key], 4))
            for cell in sweep.cells
            for key in [reference.pair_key(cell.op0, cell.op1)]
        ),
        heatmap_sha256="",
    )
    stripped = reference.stripped_heatmap(
        fixture.kernels, fixture.ops, [pair.cell for pair in fixture.pairs]
    )
    with open(reference.COMMITTED_HEATMAP) as f:
        committed = strip_volatile_heatmap(json.load(f))
    if stripped != committed:
        print(f"the tree no longer reproduces {reference.COMMITTED_HEATMAP}", file=sys.stderr)
        return 1
    payload = {
        "schema": reference.FIXTURE_SCHEMA,
        "interface": "posix",
        "ncores": 4,
        "tests_per_path": 1,
        "ops": list(fixture.ops),
        "kernels": list(fixture.kernels),
        "heatmap_sha256": reference.heatmap_digest(stripped),
        "pairs": [{"cell": pair.cell, "ref_s": pair.ref_s} for pair in fixture.pairs],
    }
    reference.FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(reference.FIXTURE_PATH, "w") as f:
        json.dump(payload, f, indent=1)
        f.write("\n")
    print(
        f"wrote {reference.FIXTURE_PATH}: {len(fixture.pairs)} pairs, "
        f"{sum(p.cell['total'] for p in fixture.pairs)} tests, "
        f"{sum(p.ref_s for p in fixture.pairs):.1f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
