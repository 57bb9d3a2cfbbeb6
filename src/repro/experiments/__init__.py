"""Experiment harness: one module per paper table/figure.

Every module exposes ``run_*`` (returns a result object), ``render``
(plain-text report) and ``main`` (CLI).  The published anchor values live
in :mod:`repro.anchors`.
"""

from . import export, fig1, fig2, fig3, fig456, fig7, table1, thunderx

__all__ = [
    "export",
    "fig1",
    "fig2",
    "fig3",
    "fig456",
    "fig7",
    "table1",
    "thunderx",
]
