"""The former name of the timing simulator's batch replay.

:class:`repro.uarch.simulator.TimingSimulator` is the only simulator;
the batch replay that used to live here as a second engine is its
``run``.  This name survives only because ``perfbench/tracing.py``
wraps ``vars(cls)["run"]`` on both classes; nothing in ``repro``
constructs it.  Delete it once that benchmark stops importing it.
"""

from repro.uarch.simulator import TimingSimulator


class VectorizedTimingSimulator(TimingSimulator):
    """:class:`TimingSimulator` under its former batch-replay name."""

    run = TimingSimulator.run
