"""The parallel experiment-execution engine (plan → execute → gather).

Every figure/table driver decomposes into independent *cells* — one
(benchmark, input set, configuration) simulation each.  A driver
*plans* by building a list of :class:`Job` objects around a
module-level cell function, *executes* them with :func:`execute`, and
*gathers* the results, which come back *in plan order* regardless of
completion order — so parallel runs are bit-identical to serial ones
by construction.

``jobs=1`` (the library default) runs the cells inline in the calling
process: no pool, no pickling, identical to the historical serial
path.  ``jobs>1`` runs them on the *session pool*: N long-lived
forked worker processes (:class:`Session`) that serve every
:func:`execute` call made inside one :func:`session` block.  The CLI
opens one session per command, so all the drivers of ``python -m
repro all`` share one set of workers; a library call made outside any
session gets a session of its own that is closed when the call
returns.  Each worker job runs under a *fresh* telemetry bundle
(:class:`~repro.obs.metrics.MetricsRegistry` +
:class:`~repro.obs.spans.SpanTree`); the snapshots travel back
with the result and are folded into the parent's active bundle in plan
order, so ``--metrics`` output and run manifests account for work done
in workers exactly as if it had run inline.

Dispatch is benchmark-affine: a job's :attr:`Job.key` (the drivers use
the benchmark name) is owned by the first worker that runs it, and an
idle worker takes its own keys first, then unowned keys, and only then
steals the first pending job in plan order.  The in-memory caches of
:mod:`repro.experiments.runner` (workload, trace, profile, baseline
simulation, shared analyses) are plain module state, so a worker that
keeps getting one benchmark keeps reusing them — across every driver
of the session, not just within one plan.

Workers are forked when the session first needs them, so they inherit
the parent's state *as of that fork*: artifact-cache overrides and
anything else set before the first pooled :func:`execute`.  State the
parent changes later does not reach them.  Cell functions must be
module-level (picklable) and depend only on their arguments — which
the experiment pipeline already guarantees: artifact building and
simulation are deterministic functions of (benchmark, input set,
scale, config), and every cache is keyed by exactly that content.
"""

import multiprocessing
import os
import signal
import threading
import traceback
from contextlib import contextmanager
from multiprocessing.connection import wait

from repro.obs import tracectx
from repro.obs.context import get_metrics, get_spans, telemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTree, span

#: Seconds a closing session waits for a worker to exit on its own
#: before terminating it.
CLOSE_TIMEOUT_S = 10.0


class JobError(RuntimeError):
    """A planned job failed in a worker.

    Carries the failing :attr:`Job.label` so a sweep that dies at cell
    400/500 says *which* cell, not just what the worker raised; the
    original exception is chained as ``__cause__``.
    """

    def __init__(self, label, cause):
        super().__init__(f"job {label!r} failed: {cause}")
        self.label = label


class Job:
    """One unit of work: a picklable callable plus its arguments.

    ``key`` is the job's affinity key (the drivers pass the benchmark
    name): the session pool sends jobs with one key to one worker when
    it can, so that worker's caches stay warm.  ``None`` means no
    affinity.
    """

    __slots__ = ("fn", "args", "label", "key")

    def __init__(self, fn, *args, label=None, key=None):
        self.fn = fn
        self.args = args
        self.label = label if label is not None else getattr(
            fn, "__name__", "job"
        )
        self.key = key

    def run(self):
        return self.fn(*self.args)

    def __repr__(self):
        return f"Job({self.label}, args={self.args!r})"


def default_jobs():
    """The CLI default for ``--jobs``: one per available CPU."""
    return os.cpu_count() or 1


def resolve_jobs(jobs):
    """Normalize a ``jobs`` argument: ``None`` means serial (1)."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _run_job(fn, args, trace=None, label=None):
    """Worker-side wrapper: isolate telemetry and ship snapshots back.

    The job's span-tree snapshot travels back and merges into the
    parent's tree, so nested spans cross the process boundary.

    ``trace`` is an optional distributed-trace propagation payload
    (:meth:`~repro.obs.tracectx.TraceContext.propagation`): when
    present the job's ``cell`` span — and everything nested inside it —
    lands in the shared trace spool, parented to the span that was
    active in the parent when the plan was submitted.
    """
    registry = MetricsRegistry()
    spans = SpanTree()
    ctx = tracectx.TraceContext.from_propagation(
        trace, service="exec-worker"
    )
    with telemetry(metrics=registry, spans=spans):
        with tracectx.activate(ctx):
            with span("cell", attrs={"job": label} if label else None):
                result = fn(*args)
    return result, registry.as_dict(), spans.as_dict()


class _RemoteTraceback(Exception):
    """A worker-side traceback, chained under the re-raised exception."""

    def __str__(self):
        return self.args[0]


def _worker_main(conn, inherited):
    """A pool worker: run the jobs sent on ``conn`` until told to stop.

    ``inherited`` are the parent's ends of every worker pipe, copied
    into this process by the fork; closing them lets each worker see
    EOF — and exit — as soon as the parent is gone.  SIGINT is left to
    the parent, which tears the pool down on ^C.
    """
    for other in inherited:
        other.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        fn, args, trace, label = task
        try:
            reply = (True, _run_job(fn, args, trace, label))
        except BaseException as exc:
            # Every job gets an answer; even a cell's SystemExit
            # becomes that job's failure in the parent.
            reply = (False, exc, traceback.format_exc())
        try:
            conn.send(reply)
        except OSError:
            return  # the parent is gone
        except Exception as exc:
            # The result or the exception did not pickle.
            conn.send((False, RuntimeError(
                f"cannot return the job's outcome: {exc!r}"
            ), traceback.format_exc()))


class _Worker:
    __slots__ = ("process", "conn")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn

    def died(self):
        return RuntimeError(
            f"worker process {self.process.pid} died "
            f"(exit code {self.process.exitcode})"
        )


class Session:
    """A pool of long-lived forked workers shared by :func:`execute` calls.

    At most ``jobs`` workers, forked lazily by the first plan that
    needs them.  Plans run one at a time (concurrent callers queue on
    a lock); workers and key ownership persist from plan to plan.  A
    worker that dies fails the job it was running and is replaced by
    the next plan.
    """

    def __init__(self, jobs):
        self.size = resolve_jobs(jobs)
        self._workers = []
        self._owners = {}
        self._lock = threading.Lock()
        self._pid = os.getpid()

    def pids(self):
        """The live workers' process ids, in worker order."""
        return [worker.process.pid for worker in self._workers]

    def _spawn(self, count):
        # Fork, not spawn: workers must start with the parent's warm
        # caches and overrides, which a fresh interpreter would have to
        # rebuild.  Pools are opened by single-threaded CLI commands and
        # library calls; the threaded serve daemon never pools.
        context = multiprocessing.get_context("fork")
        while len(self._workers) < count:
            parent_end, child_end = context.Pipe()
            inherited = [w.conn for w in self._workers] + [parent_end]
            process = context.Process(
                target=_worker_main, args=(child_end, inherited),
                name=f"repro-exec-{len(self._workers)}", daemon=True,
            )
            process.start()
            child_end.close()
            self._workers.append(_Worker(process, parent_end))

    def _retire(self, worker):
        """Forget ``worker`` (dead or torn down) and the keys it owned."""
        worker.process.join()
        worker.conn.close()
        self._workers.remove(worker)
        for key in [k for k, w in self._owners.items() if w is worker]:
            del self._owners[key]

    def _pick(self, worker, planned, pending):
        """Pop the pending plan index ``worker`` should run next."""
        unowned = None
        for position, index in enumerate(pending):
            owner = self._owners.get(planned[index].key)
            if owner is worker:
                break
            if owner is None and unowned is None:
                unowned = position
        else:
            position = unowned if unowned is not None else 0
        index = pending.pop(position)
        key = planned[index].key
        if key is not None:
            self._owners.setdefault(key, worker)
        return index

    def run(self, planned, jobs, trace=None):
        """Run ``planned`` on up to ``jobs`` workers.

        Returns the ``_run_job`` payloads in plan order.  On failure no
        further job is dispatched, the jobs already running finish, and
        :class:`JobError` is raised for the earliest failed job in plan
        order.
        """
        with self._lock:
            for worker in list(self._workers):
                if not worker.process.is_alive():
                    self._retire(worker)
            count = min(self.size, jobs, len(planned))
            self._spawn(count)
            try:
                payloads, failures = self._dispatch(
                    planned, self._workers[:count], trace
                )
            except BaseException:
                # Interrupted mid-plan: the workers' state is unknown.
                for worker in list(self._workers):
                    worker.process.terminate()
                    self._retire(worker)
                raise
        if failures:
            index = min(failures)
            exc = failures[index]
            raise JobError(planned[index].label, exc) from exc
        return payloads

    def _dispatch(self, planned, idle, trace):
        """Feed idle workers until the plan is done (or has failed);
        returns ``(payloads, {plan index: exception})``."""
        pending = list(range(len(planned)))
        payloads = [None] * len(planned)
        failures = {}
        running = {}
        while running or (pending and not failures):
            while idle and pending and not failures:
                worker = idle.pop(0)
                index = self._pick(worker, planned, pending)
                job = planned[index]
                try:
                    worker.conn.send((job.fn, job.args, trace, job.label))
                except OSError:
                    self._retire(worker)
                    failures[index] = worker.died()
                    continue
                running[worker] = index
            if not running:
                continue
            ready = set(wait(
                [w.conn for w in running]
                + [w.process.sentinel for w in running]
            ))
            for worker, index in list(running.items()):
                if worker.conn in ready or worker.conn.poll():
                    try:
                        reply = worker.conn.recv()
                    except EOFError:
                        reply = None
                elif worker.process.sentinel in ready:
                    reply = None
                else:
                    continue
                del running[worker]
                if reply is None:
                    self._retire(worker)
                    failures[index] = worker.died()
                    continue
                idle.append(worker)
                if reply[0]:
                    payloads[index] = reply[1]
                else:
                    exc = reply[1]
                    exc.__cause__ = _RemoteTraceback(reply[2])
                    failures[index] = exc
        return payloads, failures

    def close(self):
        """Stop every worker and wait for it to exit."""
        with self._lock:
            for worker in self._workers:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
            for worker in list(self._workers):
                worker.process.join(CLOSE_TIMEOUT_S)
                if worker.process.is_alive():
                    worker.process.terminate()
                self._retire(worker)


#: The session :func:`execute` submits to (``None`` outside any).
_session = None


@contextmanager
def session(jobs=None):
    """Share one worker pool among every :func:`execute` in the block.

    ``jobs`` bounds the pool (``None`` = 1, which never forks); a plan
    executed with ``jobs=k`` uses at most ``min(k, jobs)`` workers.
    The workers are stopped and reaped when the block exits.
    """
    global _session
    previous = _session
    current = Session(jobs)
    _session = current
    try:
        yield current
    finally:
        _session = previous
        current.close()


def execute(jobs_list, jobs=None):
    """Run a planned list of :class:`Job` objects; gather in plan order.

    Returns the list of job results, ordered like ``jobs_list``.  When
    the plan would get at most one worker — ``jobs`` <= 1, fewer than
    two jobs, or a size-1 :func:`session` — everything runs inline
    under the caller's telemetry; otherwise the jobs run on the active
    :func:`session` pool — or on a pool opened for this call alone —
    and worker telemetry snapshots are merged into the active
    registry/span tree, also in plan order.

    A failing job raises in the parent either way; on the pool path it
    is wrapped in :class:`JobError` with the failing job's label, no
    job not yet started is dispatched, and *no* worker telemetry is
    merged — snapshots are folded into the parent's registry/span tree
    only once every job has succeeded, so ``--metrics`` output never
    reports a half-gathered plan.
    """
    planned = list(jobs_list)
    active = _session
    if active is not None and active._pid != os.getpid():
        active = None  # inherited by a fork; the pool is not ours
    workers = min(resolve_jobs(jobs), len(planned))
    if active is not None:
        workers = min(workers, active.size)
    if workers <= 1:
        results = []
        for job in planned:
            # Same ``cell`` span as the worker path, so serial and
            # parallel runs produce structurally identical span trees
            # (and serial ``--trace`` runs carry span.end events).
            with span("cell", attrs={"job": job.label}):
                results.append(job.run())
        return results

    metrics = get_metrics()
    spans = get_spans()
    ctx = tracectx.current()
    trace = ctx.propagation() if ctx is not None else None
    if active is not None:
        payloads = active.run(planned, workers, trace)
    else:
        own = Session(workers)
        try:
            payloads = own.run(planned, workers, trace)
        finally:
            own.close()
    results = []
    for result, metrics_snapshot, spans_snapshot in payloads:
        metrics.merge_snapshot(metrics_snapshot)
        spans.merge_snapshot(spans_snapshot)
        results.append(result)
    return results


def execute_starmap(fn, argtuples, jobs=None):
    """Shorthand: plan one :class:`Job` per argument tuple and execute."""
    return execute([Job(fn, *args) for args in argtuples], jobs=jobs)
