"""Statically-predicted pair conflict maps (``repro.staticpredict/1``).

For each unordered op pair the predictor asks: can the two handlers,
running on two *different* cores, touch the same cache line with at
least one write?  The answer comes purely from the analyzer's abstract
access sets:

* same region (or either side unknown) + any write → **conflict**;
* a per-core region where both sides provably touch only their own
  core's line → no overlap;
* disjoint regions → no overlap.

Each pair gets two verdicts.  **balanced** excludes accesses inside
declared ``imbalance_path()`` blocks — it is the headline verdict the
soundness gate checks against MTRACE, whose TESTGEN installs are
deliberately balanced.  **strict** keeps every access — the all-paths
claim (scalefs's unordered socket is balanced-CF but not strict-CF:
the steal scans can touch every core's line).
"""

from __future__ import annotations

import itertools

from repro.primitives.sharing import PER_CORE, SCOPE_OWN
from repro.staticcheck.analyzer import (
    ANALYZABLE_KERNELS,
    UNKNOWN_REGION,
    analyze_kernel,
)

STATICPREDICT_SCHEMA = "repro.staticpredict/1"

CONFLICT = "conflict"
CONFLICT_FREE = "conflict-free"


def conflicting_regions(fa, fb, include_imbalanced: bool) -> list[str]:
    """Regions through which the two footprints may conflict."""
    regions = set()
    for x in fa:
        if x.imbalanced and not include_imbalanced:
            continue
        for y in fb:
            if y.imbalanced and not include_imbalanced:
                continue
            if not (x.write or y.write):
                continue
            unknown = UNKNOWN_REGION in (x.region, y.region)
            if x.region != y.region and not unknown:
                continue
            if (not unknown
                    and x.sharing == PER_CORE and y.sharing == PER_CORE
                    and x.scope == SCOPE_OWN and y.scope == SCOPE_OWN):
                # Both sides stay on their own core's line of the same
                # per-core family; the pair runs on two distinct cores.
                continue
            regions.add(y.region if x.region == UNKNOWN_REGION
                        else x.region)
    return sorted(regions)


def predict_pair(fa, fb) -> dict:
    """Both verdicts for one (footprint, footprint) pair."""
    out = {}
    for mode, include in (("balanced", False), ("strict", True)):
        regions = conflicting_regions(fa, fb, include)
        out[mode] = CONFLICT if regions else CONFLICT_FREE
        out[f"{mode}_regions"] = regions
    return out


def predict_interface(interface: str,
                      kernels=None) -> dict:
    """Analyze every kernel for an interface; returns per-kernel
    :class:`KernelSharingAnalysis` keyed by kernel name."""
    from repro.model.registry import get_interface

    iface = get_interface(interface)
    if kernels is None:
        kernels = [name for name, _ in iface.kernels
                   if name in ANALYZABLE_KERNELS]
    ops = list(iface.op_names)
    return {
        kernel: analyze_kernel(kernel, ops, interface=interface)
        for kernel in kernels
    }


def staticpredict_payload(interface: str, kernels=None) -> dict:
    """The full ``repro.staticpredict/1`` artifact payload."""
    from repro.model.registry import get_interface

    iface = get_interface(interface)
    analyses = predict_interface(interface, kernels)
    kernel_names = list(analyses)
    ops = list(iface.op_names)

    pairs = []
    summary = {
        k: {"pairs": 0, "conflict_free_balanced": 0,
            "conflict_free_strict": 0}
        for k in kernel_names
    }
    for op0, op1 in itertools.combinations_with_replacement(ops, 2):
        verdicts = {}
        for kernel, analysis in analyses.items():
            verdict = predict_pair(analysis.footprint(op0),
                                   analysis.footprint(op1))
            verdicts[kernel] = verdict
            summary[kernel]["pairs"] += 1
            for mode in ("balanced", "strict"):
                if verdict[mode] == CONFLICT_FREE:
                    summary[kernel][f"conflict_free_{mode}"] += 1
        pairs.append({"op0": op0, "op1": op1, "verdict": verdicts})

    footprints = {
        kernel: {
            op: sorted(a.render() for a in analysis.footprint(op))
            for op in ops
        }
        for kernel, analysis in analyses.items()
    }
    return {
        "schema": STATICPREDICT_SCHEMA,
        "interface": interface,
        "kernels": kernel_names,
        "ops": ops,
        "pairs": pairs,
        "summary": summary,
        "footprints": footprints,
    }


def staticpredict_artifact_path(interface: str) -> str:
    """Default ``lint`` conflict-map artifact path (always
    interface-suffixed: the map is inherently per-interface)."""
    return f"results/staticpredict_{interface}.json"
