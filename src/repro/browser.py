"""A terminal browser for the evaluation data.

The paper ships "a browser for the data in this paper" alongside COMMUTER;
this is ours: it loads the JSON the Figure 6 pipeline writes and answers
the questions a developer asks of it.

Usage::

    python -m repro.browser summary
    python -m repro.browser cell open open
    python -m repro.browser row mmap
    python -m repro.browser worst scalefs --top 10
    python -m repro.browser residues scalefs
    python -m repro.browser compare posix posix-ext
    python -m repro.browser compare results/a.json results/b.json
    python -m repro.browser scaling sockets-unordered
    python -m repro.browser staticpredict sockets-unordered
    python -m repro.browser staticpredict posix --op pipe

All commands accept ``--data PATH`` (default results/fig6_heatmap.json)
or ``--interface NAME``, which resolves the default artifact the heatmap
pipeline writes for that interface (e.g. ``--interface sockets-unordered``
reads results/fig6_heatmap_sockets-unordered.json).  ``compare`` instead
takes two heatmap artifacts — file paths or registered interface names
(resolved the same way) — and diffs them cell by cell.  ``scaling``
reads a ``results/scaling_<interface>.json`` artifact (schema
repro.scaling/1, written by ``python -m repro scaling``) and renders the
conflict-fraction-vs-ncores curve with its Amdahl-model cost counters.
``staticpredict`` reads a ``results/staticpredict_<interface>.json``
artifact (schema repro.staticpredict/1, written by ``python -m repro
lint``) and renders the statically predicted conflict matrix.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

DEFAULT_DATA = os.path.join("results", "fig6_heatmap.json")


class HeatmapData:
    def __init__(self, raw: dict):
        self.raw = raw
        self.kernels = raw["kernels"]
        self.ops = raw["ops"]
        self.cells = raw["cells"]
        self.by_pair = {}
        for cell in self.cells:
            self.by_pair[(cell["op0"], cell["op1"])] = cell
            self.by_pair[(cell["op1"], cell["op0"])] = cell

    @classmethod
    def load(cls, path: str) -> "HeatmapData":
        with open(path) as f:
            return cls(json.load(f))

    def cell(self, op0: str, op1: str) -> dict:
        try:
            return self.by_pair[(op0, op1)]
        except KeyError:
            raise SystemExit(f"no cell for {op0}/{op1}; ops: {self.ops}")


def cmd_summary(data: HeatmapData, args) -> None:
    total = data.raw["total"]
    # Stripped projections (e.g. service-store artifacts) carry no
    # volatile execution keys such as "elapsed".
    elapsed = data.raw.get("elapsed")
    timing = f" ({elapsed:.0f}s pipeline)" if elapsed is not None else ""
    print(f"{total} commutative test cases{timing}")
    for kernel, ok in data.raw["conflict_free"].items():
        print(f"  {kernel:12s} {ok:6d} conflict-free "
              f"({100 * ok / total:.1f}%)")


def cmd_cell(data: HeatmapData, args) -> None:
    cell = data.cell(args.op0, args.op1)
    print(f"{cell['op0']}/{cell['op1']}: {cell['total']} commutative tests")
    for kernel, bad in cell["fails"].items():
        print(f"  {kernel:12s} {cell['total'] - bad:5d} conflict-free, "
              f"{bad} not")


def cmd_row(data: HeatmapData, args) -> None:
    print(f"{args.op} against every operation:")
    for other in data.ops:
        cell = data.by_pair.get((args.op, other))
        if cell is None or not cell["total"]:
            continue
        fails = ", ".join(
            f"{k} {v}" for k, v in cell["fails"].items() if v
        ) or "all conflict-free"
        print(f"  {other:10s} {cell['total']:5d} tests   {fails}")


def cmd_worst(data: HeatmapData, args) -> None:
    ranked = sorted(
        data.cells, key=lambda c: -c["fails"].get(args.kernel, 0)
    )[:args.top]
    print(f"worst cells for {args.kernel}:")
    for cell in ranked:
        bad = cell["fails"].get(args.kernel, 0)
        if not bad:
            break
        print(f"  {cell['op0']}/{cell['op1']}: {bad}/{cell['total']}")


def cmd_residues(data: HeatmapData, args) -> None:
    residues = data.raw["residues"].get(args.kernel)
    if residues is None:
        raise SystemExit(f"no residue data for kernel {args.kernel!r}")
    total = sum(residues.values())
    print(f"{args.kernel}: {total} non-conflict-free tests by cause")
    for label, count in sorted(residues.items(), key=lambda kv: -kv[1]):
        print(f"  {label:16s} {count}")


def _pair_key(cell: dict) -> tuple:
    return tuple(sorted((cell["op0"], cell["op1"])))


def _label(data: HeatmapData, path: str) -> str:
    interface = data.raw.get("interface", "posix")
    return f"{path} [{interface}]"


def cmd_compare(data_a: HeatmapData, data_b: HeatmapData, args) -> None:
    """Cell-by-cell diff of two heatmap artifacts (interface redesigns,
    ncores sweeps, or before/after runs of one interface)."""
    print(f"A: {_label(data_a, args.artifact_a)}")
    print(f"B: {_label(data_b, args.artifact_b)}")
    kernels = list(dict.fromkeys(data_a.kernels + data_b.kernels))
    total_a, total_b = data_a.raw["total"], data_b.raw["total"]
    print(f"total commutative tests {total_a} -> {total_b}")
    for kernel in kernels:
        ok_a = data_a.raw["conflict_free"].get(kernel)
        ok_b = data_b.raw["conflict_free"].get(kernel)
        parts = []
        for ok, total in ((ok_a, total_a), (ok_b, total_b)):
            parts.append(
                "-" if ok is None else
                f"{ok}/{total} ({100 * ok / total:.1f}%)" if total else
                f"{ok}/{total}"
            )
        print(f"  {kernel:12s} conflict-free {parts[0]} -> {parts[1]}")

    cells_a = {_pair_key(c): c for c in data_a.cells}
    cells_b = {_pair_key(c): c for c in data_b.cells}
    changed = 0
    for key in sorted(set(cells_a) | set(cells_b)):
        a, b = cells_a.get(key), cells_b.get(key)
        if a is None or b is None:
            present, missing = ("B", "A") if a is None else ("A", "B")
            cell = b if a is None else a
            fails = ", ".join(
                f"{k} {v}" for k, v in cell["fails"].items()
            ) or "none"
            print(f"  {key[0]}/{key[1]}: only in {present} "
                  f"({cell['total']} tests, fails: {fails}; "
                  f"no cell in {missing})")
            changed += 1
            continue
        deltas = []
        if a["total"] != b["total"]:
            deltas.append(f"tests {a['total']} -> {b['total']}")
        for kernel in kernels:
            fa = a["fails"].get(kernel)
            fb = b["fails"].get(kernel)
            if fa != fb:
                deltas.append(f"{kernel} fails {fa} -> {fb}")
        if deltas:
            print(f"  {key[0]}/{key[1]}: " + "; ".join(deltas))
            changed += 1
    if not changed:
        print("  every shared cell is identical")


def cmd_scaling(raw: dict, args) -> None:
    """The scaling-curve view: conflict-free fraction per kernel per
    ncores rung, the monotonicity verdicts, and the worst-rung cost
    counters (schema repro.scaling/1)."""
    kernels = raw["kernels"]
    total = raw["total"]
    print(f"scaling {raw['interface']}: ladder "
          + ",".join(str(n) for n in raw["ladder"])
          + f" ({raw['pairs']} pairs, {total} tests per rung)")
    header = f"{'ncores':>7}" + "".join(f"{k:>22}" for k in kernels)
    print(header)
    for entry in raw["curve"]:
        row = f"{entry['ncores']:>7}"
        for kernel in kernels:
            ok = entry["conflict_free"].get(kernel, 0)
            frac = entry["conflict_free_fraction"].get(kernel, 0.0)
            row += f"{f'{ok}/{total} ({100 * frac:.0f}%)':>22}"
        print(row)
    for kernel, verdict in raw.get("monotonicity", {}).items():
        status = "nondecreasing" if verdict["nondecreasing"] else "DECREASES"
        print(f"  {kernel:12s} conflict-free fraction {status}")
    worst = raw["curve"][-1]
    print(f"cost counters at {worst['ncores']} cores "
          "(summed over all tests):")
    for kernel in kernels:
        counters = worst["cost"].get(kernel, {})
        rendered = ", ".join(
            f"{name}={value}" for name, value in sorted(counters.items())
        ) or "none"
        print(f"  {kernel:12s} {rendered}")


def cmd_staticpredict(raw: dict, args) -> None:
    """The statically predicted conflict map (schema
    repro.staticpredict/1, written by ``python -m repro lint``):
    per-kernel verdict matrices, or one op's abstract footprint and
    row with ``--op``."""
    ops = raw["ops"]
    by_pair = {}
    for pair in raw["pairs"]:
        by_pair[(pair["op0"], pair["op1"])] = pair["verdict"]
        by_pair[(pair["op1"], pair["op0"])] = pair["verdict"]
    kernels = raw["kernels"]
    if args.kernel is not None:
        if args.kernel not in kernels:
            raise SystemExit(
                f"no verdicts for kernel {args.kernel!r}; "
                f"kernels: {kernels}")
        kernels = [args.kernel]
    print(f"staticpredict {raw['interface']}: {len(raw['pairs'])} pairs")
    if args.op is not None:
        if args.op not in ops:
            raise SystemExit(f"unknown op {args.op!r}; ops: {ops}")
        for kernel in kernels:
            print(f"{kernel}: {args.op} abstract footprint")
            for line in raw["footprints"][kernel].get(args.op, []):
                print(f"  {line}")
            for other in ops:
                verdict = by_pair[(args.op, other)][kernel]
                regions = (verdict["balanced_regions"]
                           or verdict["strict_regions"])
                detail = (f" via {', '.join(regions)}" if regions
                          else "")
                print(f"  vs {other:10s} {verdict['balanced']:13s} "
                      f"(strict {verdict['strict']}){detail}")
        return
    print("  . conflict-free   ~ conflict-free balanced only   "
          "# conflict")
    width = max(len(op) for op in ops)
    for kernel in kernels:
        summary = raw["summary"][kernel]
        print(f"{kernel}: {summary['conflict_free_balanced']}"
              f"/{summary['pairs']} balanced conflict-free "
              f"({summary['conflict_free_strict']} strict)")
        for op0 in ops:
            row = ""
            for op1 in ops:
                verdict = by_pair[(op0, op1)][kernel]
                if verdict["balanced"] != "conflict-free":
                    row += "#"
                elif verdict["strict"] != "conflict-free":
                    row += "~"
                else:
                    row += "."
            print(f"  {op0:>{width}} {row}")


def _resolve_artifact(token: str, ncores: int) -> str:
    """A heatmap artifact from a file path or a registered interface
    name (resolved to that interface's default artifact path)."""
    if os.path.exists(token):
        return token
    from repro.model.registry import UnknownInterfaceError, get_interface
    from repro.kinds import interface_artifact_path

    try:
        get_interface(token)
    except UnknownInterfaceError:
        raise SystemExit(
            f"{token!r} is neither an artifact file nor a registered "
            f"interface name"
        ) from None
    path = interface_artifact_path(DEFAULT_DATA, token, ncores)
    if not os.path.exists(path):
        raise SystemExit(
            f"no artifact at {path}; run `python -m repro heatmap "
            f"--interface {token}` first"
        )
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.browser", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--data", default=None)
    parser.add_argument(
        "--interface", default="posix",
        help="read the named interface's default heatmap artifact "
             "(ignored when --data is given)",
    )
    parser.add_argument(
        "--ncores", type=int, default=4,
        help="read the artifact of a non-default-ncores heatmap run "
             "(ignored when --data is given)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("summary")
    p = sub.add_parser("cell")
    p.add_argument("op0")
    p.add_argument("op1")
    p = sub.add_parser("row")
    p.add_argument("op")
    p = sub.add_parser("worst")
    p.add_argument("kernel")
    p.add_argument("--top", type=int, default=10)
    p = sub.add_parser("residues")
    p.add_argument("kernel")
    p = sub.add_parser("compare")
    p.add_argument("artifact_a",
                   help="heatmap artifact path or interface name")
    p.add_argument("artifact_b",
                   help="heatmap artifact path or interface name")
    p = sub.add_parser("scaling")
    p.add_argument("scaling_interface", nargs="?", default=None,
                   help="interface whose scaling artifact to read "
                        "(default: --interface; --data overrides)")
    p = sub.add_parser("staticpredict")
    p.add_argument("sp_interface", nargs="?", default=None,
                   help="interface whose staticpredict artifact to read "
                        "(default: --interface; --data overrides)")
    p.add_argument("--kernel", default=None,
                   help="show only this kernel's verdicts")
    p.add_argument("--op", default=None,
                   help="show one op's abstract footprint and row "
                        "instead of the matrix")
    args = parser.parse_args(argv)
    if args.command == "staticpredict":
        if args.data is None:
            from repro.staticcheck.predict import staticpredict_artifact_path

            interface = args.sp_interface or args.interface
            args.data = staticpredict_artifact_path(interface)
            if not os.path.exists(args.data):
                raise SystemExit(
                    f"no artifact at {args.data}; run `python -m repro "
                    f"lint --interface {interface}` first"
                )
        with open(args.data) as f:
            cmd_staticpredict(json.load(f), args)
        return 0
    if args.command == "scaling":
        if args.data is None:
            from repro.kinds import DEFAULT_LADDER, scaling_artifact_path

            interface = args.scaling_interface or args.interface
            args.data = scaling_artifact_path(interface, DEFAULT_LADDER)
            if not os.path.exists(args.data):
                raise SystemExit(
                    f"no artifact at {args.data}; run `python -m repro "
                    f"scaling {interface}` first"
                )
        with open(args.data) as f:
            cmd_scaling(json.load(f), args)
        return 0
    if args.command == "compare":
        args.artifact_a = _resolve_artifact(args.artifact_a, args.ncores)
        args.artifact_b = _resolve_artifact(args.artifact_b, args.ncores)
        cmd_compare(HeatmapData.load(args.artifact_a),
                    HeatmapData.load(args.artifact_b), args)
        return 0
    if args.data is None:
        # Resolve through the same suffixing helper the pipeline writes
        # with, so the browser always finds the matching artifact.
        from repro.model.registry import UnknownInterfaceError, get_interface
        from repro.kinds import interface_artifact_path

        try:
            get_interface(args.interface)
        except UnknownInterfaceError as exc:
            raise SystemExit(str(exc.args[0])) from exc
        args.data = interface_artifact_path(
            DEFAULT_DATA, args.interface, args.ncores
        )
    data = HeatmapData.load(args.data)
    handler = {
        "summary": cmd_summary,
        "cell": cmd_cell,
        "row": cmd_row,
        "worst": cmd_worst,
        "residues": cmd_residues,
    }[args.command]
    handler(data, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
