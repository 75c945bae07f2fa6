"""Process-wide switch for the BAT physical-property layer.

BATs and relations are immutable, so physical properties (``tsorted``,
``trevsorted``, ``tkey``, ``tnonil``), per-relation order permutations and
float views of integer columns can never go stale — they are computed on
first demand and cached on the instance, exactly like MonetDB's per-BAT
property bits and order indexes.

This module holds the single switch that enables the layer.  It exists so
the ``properties.*`` ablations (``benchmarks/ablate.py``) can measure the
engine with and without property tracking; with the switch off
every property is recomputed from scratch on each use, no cache is read or
written, and every short-circuit (identity permutations in
:func:`repro.bat.sorting.order_by`, binary search in
:func:`repro.bat.kernels.thetaselect`, the skipped right-side argsort in
:func:`repro.relational.joins.join_positions`) is disabled.  Results are
bit-identical either way — only the work performed differs.

The engine-level knob is :class:`repro.core.config.RmaConfig`'s
``use_properties`` flag, which gates the per-relation order cache used by
:mod:`repro.core.context`; this module-level switch gates the BAT-layer
behaviour underneath it.  The ablations toggle both.
"""

from __future__ import annotations

from contextlib import contextmanager

_ENABLED = True


def properties_enabled() -> bool:
    """Whether property tracking, caching and short-circuits are active."""
    return _ENABLED


def set_properties_enabled(enabled: bool) -> bool:
    """Set the switch; returns the previous value."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


@contextmanager
def use_properties(enabled: bool):
    """Context manager scoping the switch (used by tests and ablations)."""
    previous = set_properties_enabled(enabled)
    try:
        yield
    finally:
        set_properties_enabled(previous)
