"""Evaluation harness: one module per paper table/figure (see DESIGN.md §4).

* :mod:`repro.bench.heatmap` — Figure 6: conflict-freedom of every syscall
  pair on both kernels (plus the §6.4 residue breakdown).
* :mod:`repro.bench.statbench` — Figure 7(a): fstat vs fstatx scalability
  under concurrent link/unlink, three link-count representations.
* :mod:`repro.bench.openbench` — Figure 7(b): lowest-fd vs O_ANYFD.
* :mod:`repro.bench.mailserver` — Figure 7(c): a qmail-like mail server on
  regular vs commutative APIs.
* :mod:`repro.bench.report` — ASCII rendering of the matrices and series.
"""

from repro.bench.heatmap import HeatmapResult, run_heatmap
from repro.bench.statbench import run_statbench
from repro.bench.openbench import run_openbench
from repro.bench.mailserver import run_mailserver
from repro.bench.report import render_heatmap, render_series

__all__ = [
    "HeatmapResult",
    "run_heatmap",
    "run_statbench",
    "run_openbench",
    "run_mailserver",
    "render_heatmap",
    "render_series",
]
