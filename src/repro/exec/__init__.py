"""Experiment execution: process-pool fan-out and the persistent
artifact cache.

:mod:`repro.exec.engine` turns each figure/table driver into a planned
list of independent (benchmark, input set, config) cells and runs them
serially or on a session-wide, benchmark-affine worker pool with
deterministic, plan-ordered gathering.  :mod:`repro.exec.artifact_cache` keeps traces and profiles
on disk, content-addressed, across processes and invocations.  See
``docs/performance.md``.
"""

from repro.exec import artifact_cache
from repro.exec.engine import (
    Job,
    JobError,
    default_jobs,
    execute,
    execute_starmap,
    resolve_jobs,
    session,
)

__all__ = [
    "Job",
    "JobError",
    "artifact_cache",
    "default_jobs",
    "execute",
    "execute_starmap",
    "resolve_jobs",
    "session",
]
