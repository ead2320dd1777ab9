"""Columnar / windowed views over traces for the simulator's batch replay.

The compact :class:`~repro.emulator.trace.Trace` already stores the
dynamic stream as three parallel ``array('q')`` columns; numpy can view
those buffers zero-copy, which is what makes per-window precomputation
(fetch-group boundaries, predictor outcomes, cache latencies) in
:mod:`repro.uarch.simulator` cheap.  Object traces (lists of
per-instruction records) are converted with one python pass.
"""

import numpy as np

from repro.emulator.trace import NO_ADDRESS, Trace, trace_rows


def trace_columns(trace):
    """Return ``(pcs, next_pcs, addresses)`` as int64 numpy arrays.

    For a compact :class:`Trace` the arrays are zero-copy (read-only
    semantics by convention: callers must not write through them).
    For any other trace shape accepted by :func:`trace_rows`, columns
    are materialized in one pass, mapping ``None`` addresses to
    :data:`NO_ADDRESS`.
    """
    if isinstance(trace, Trace):
        return (
            np.frombuffer(trace.pcs, dtype=np.int64),
            np.frombuffer(trace.next_pcs, dtype=np.int64),
            np.frombuffer(trace.addresses, dtype=np.int64),
        )
    n = len(trace)
    pcs = np.empty(n, dtype=np.int64)
    next_pcs = np.empty(n, dtype=np.int64)
    addresses = np.empty(n, dtype=np.int64)
    for i, (pc, next_pc, address) in enumerate(trace_rows(trace)):
        pcs[i] = pc
        next_pcs[i] = next_pc
        addresses[i] = NO_ADDRESS if address is None else address
    return pcs, next_pcs, addresses


def taken_flags(pcs, next_pcs):
    """Boolean vector: row left the fall-through path (``next != pc+1``).

    This is the emulator's own taken convention (HALT records
    ``next_pc == pc`` and therefore reads as taken, exactly like the
    scalar replay loop sees it).
    """
    return next_pcs != pcs + 1


def window_bounds(n, window_size):
    """``[(start, stop), ...]`` covering ``range(n)`` in fixed windows."""
    if window_size < 1:
        raise ValueError(f"window_size must be >= 1, got {window_size}")
    return [(s, min(n, s + window_size)) for s in range(0, n, window_size)]
