"""The HTTP daemon: ``python -m repro serve --port N``.

Stdlib :class:`~http.server.ThreadingHTTPServer` — one thread per
request, the :class:`~repro.serve.app.ServeApp` underneath holding the
warm state.  The server is configured for *graceful drain*:
``daemon_threads`` is off and ``block_on_close`` on, so a SIGINT or
SIGTERM stops accepting new connections, lets every in-flight request
finish, and only then exits — with the interrupt convention shared by
the campaign CLI (exit 130 for SIGINT, 143 for SIGTERM), no traceback.

The signal handler must not call :meth:`~socketserver.BaseServer.shutdown`
directly: the handler runs on the main thread, which is *inside*
``serve_forever``, and ``shutdown`` blocks until ``serve_forever``
exits — a deadlock.  A helper thread makes the call instead.
"""

import argparse
import json
import signal
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.tracectx import TRACE_HEADER
from repro.serve.app import ServeApp
from repro.workloads import scale_arg

#: Default listen address.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

#: Exit codes for the two drain signals (128 + signal number).
EXIT_SIGINT = 130
EXIT_SIGTERM = 143

#: Largest request body accepted, in bytes; a longer one is refused
#: with 413 without being read.  Real bodies are a few hundred
#: bytes of JSON.
MAX_BODY_BYTES = 1 << 20

#: After refusing a request whose body it did not read, the handler
#: discards at most this many further bytes, waiting at most
#: ``LINGER_TIMEOUT_S`` for each, before it closes the connection.
LINGER_BYTES = 8 * MAX_BODY_BYTES
LINGER_TIMEOUT_S = 1.0

#: Longest wait for a client's next bytes, in seconds: a request line,
#: headers, or a body shorter than its ``Content-Length``.  A
#: connection that stays silent this long is closed, which also bounds
#: how long an idle keep-alive client can hold up the shutdown drain.
READ_TIMEOUT_S = 30.0


class ServeServer(ThreadingHTTPServer):
    """Threaded HTTP server that drains in-flight requests on close."""

    #: Handler threads are joined by ``server_close`` (the drain).
    daemon_threads = False
    block_on_close = True

    def __init__(self, address, app, verbose=False):
        self.app = app
        self.verbose = verbose
        super().__init__(address, RequestHandler)


def _body_length(header):
    """``(length, None, None)`` for a usable ``Content-Length`` header,
    else ``(None, status, message)`` with the 4xx to answer."""
    try:
        length = int(header)
    except (TypeError, ValueError):
        return None, 400, "bad Content-Length"
    if length < 0:
        return None, 400, "negative Content-Length"
    if length > MAX_BODY_BYTES:
        return None, 413, (
            f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit"
        )
    return length, None, None


class RequestHandler(BaseHTTPRequestHandler):
    """Routes ``/v1/*`` POSTs and the two GET endpoints to the app."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 — stdlib name
        if self.server.verbose:
            super().log_message(format, *args)

    def setup(self):
        # Read at connection time, so the module constant is the knob.
        self.timeout = READ_TIMEOUT_S
        super().setup()

    def _send(self, status, body, content_type="application/json",
              headers=()):
        """Send a whole response (status line, headers, ``body``) in
        one ``wfile.write``.

        The socket writer is unbuffered, so the stdlib's
        ``end_headers()`` followed by a body write puts the response
        on the wire as two segments.  On a keep-alive connection
        Nagle's algorithm then holds the second segment until the
        client's delayed ACK of the first, about 40 ms later.
        """
        self.log_request(status, len(body))
        lines = [
            f"{self.protocol_version} {status} "
            f"{self.responses[status][0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        lines += [f"{name}: {value}" for name, value in headers]
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self.wfile.write(head + body)

    def _error(self, status, message):
        body = (json.dumps({"error": message}, sort_keys=True) + "\n") \
            .encode("utf-8")
        self._send(status, body)

    def _lingering_close(self):
        """Half-close, then drain what the client is still sending.

        Closing a socket with unread data makes the kernel reset the
        connection, and a client that is still sending its body would
        then see the reset instead of the reply.  Shutting down the
        write side delivers the reply followed by EOF; the bounded
        drain lets the client finish sending before the close.
        """
        self.close_connection = True
        try:
            self.connection.shutdown(socket.SHUT_WR)
            self.connection.settimeout(LINGER_TIMEOUT_S)
            left = LINGER_BYTES
            while left > 0:
                chunk = self.connection.recv(min(left, 1 << 16))
                if not chunk:
                    break
                left -= len(chunk)
        except OSError:
            pass  # reset, or timed out: close anyway

    def do_GET(self):
        app = self.server.app
        started = time.monotonic()
        if self.path == "/healthz":
            status, body = app.healthz()
            self._send(status, body)
        elif self.path == "/metrics":
            status, body = app.metrics()
            self._send(
                status, body,
                content_type=(
                    "application/openmetrics-text; version=1.0.0; "
                    "charset=utf-8"
                ),
            )
        elif self.path.startswith("/v1/trace/"):
            trace_id = self.path[len("/v1/trace/"):]
            status, body = app.trace_timeline(trace_id)
            self._send(status, body)
        else:
            status = 404
            self._error(status, f"unknown path {self.path!r}")
        app.log_access(
            "GET", self.path, status,
            (time.monotonic() - started) * 1000.0,
        )

    def do_POST(self):
        app = self.server.app
        started = time.monotonic()
        if not self.path.startswith("/v1/"):
            self._error(404, f"unknown path {self.path!r}")
            app.log_access(
                "POST", self.path, 404,
                (time.monotonic() - started) * 1000.0,
            )
            return
        endpoint = self.path[len("/v1/"):]
        length, status, message = _body_length(
            self.headers.get("Content-Length", 0)
        )
        if status is not None:
            # The body was not read, so the connection cannot carry
            # another request.
            self._error(status, message)
            self._lingering_close()
            app.log_access(
                "POST", self.path, status,
                (time.monotonic() - started) * 1000.0,
            )
            return
        raw = self.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            self._error(400, "request body is not valid JSON")
            app.log_access(
                "POST", self.path, 400,
                (time.monotonic() - started) * 1000.0,
            )
            return
        status, response, meta = app.handle_request(
            endpoint, body, traceparent=self.headers.get(TRACE_HEADER)
        )
        traceparent = meta.get("traceparent")
        self._send(status, response,
                   headers=[(TRACE_HEADER, traceparent)] if traceparent
                   else ())
        app.log_access("POST", self.path, status, meta["duration_ms"],
                       meta=meta)


def build_server(address, app=None, verbose=False):
    """A ready-to-serve :class:`ServeServer` (tests drive this directly).

    ``address`` is ``(host, port)``; port 0 binds an ephemeral port —
    read the actual one back from ``server.server_address``.
    """
    return ServeServer(address, app if app is not None else ServeApp(),
                       verbose=verbose)


def _warm(benchmarks, scale):
    """Pre-build artifacts and shared analyses before serving."""
    from repro.compiler import shared_manager
    from repro.experiments.runner import get_artifacts

    for benchmark in benchmarks:
        artifacts = get_artifacts(benchmark, scale=scale)
        shared_manager().analysis(artifacts.program, artifacts.profile)
        print(f"[serve] warmed {benchmark} (scale {scale:g})",
              flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Warm-state serving daemon for compile/simulate/explain "
            "requests (see docs/serving.md)."
        ),
    )
    parser.add_argument("--host", default=DEFAULT_HOST,
                        help=f"bind address (default {DEFAULT_HOST})")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"listen port (default {DEFAULT_PORT}; "
                             f"0 = ephemeral, printed at startup)")
    parser.add_argument("--warm", default="", metavar="BENCHMARKS",
                        help="comma-separated benchmarks to pre-build "
                             "artifacts for before serving")
    parser.add_argument("--warm-scale", type=scale_arg, default=1.0,
                        metavar="S",
                        help="trace scale used by --warm (default 1.0)")
    parser.add_argument("--sim-engine",
                        choices=("auto", "scalar", "vectorized"),
                        default=None,
                        help="process-default timing-simulator engine "
                             "(per-request 'engine' fields override it; "
                             "results are engine-independent)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent artifact cache directory")
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="skip the persistent artifact cache")
    parser.add_argument("--verbose", action="store_true",
                        help="log each request to stderr")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="span spool directory for distributed "
                             "tracing (default: a fresh temp dir, "
                             "printed at startup)")
    parser.add_argument("--no-trace", action="store_true",
                        help="disable per-request tracing and "
                             "/v1/trace")
    parser.add_argument("--access-log", default=None, metavar="FILE",
                        help="append structured access-log lines to "
                             "FILE (default: stderr)")
    parser.add_argument("--no-access-log", action="store_true",
                        help="disable the structured access log")
    args = parser.parse_args(argv)

    if args.sim_engine is not None:
        from repro.uarch import set_default_engine

        set_default_engine(args.sim_engine)
    if args.cache_dir:
        from repro.exec import artifact_cache

        artifact_cache.set_cache_dir(args.cache_dir)
    if args.no_disk_cache:
        from repro.exec import artifact_cache

        artifact_cache.set_disabled(True)

    trace_dir = None
    if not args.no_trace:
        trace_dir = args.trace_dir
        if trace_dir is None:
            import tempfile

            trace_dir = tempfile.mkdtemp(prefix="repro-serve-trace-")
    access_log = None
    if not args.no_access_log:
        from repro.serve.accesslog import AccessLog

        access_log = AccessLog(
            args.access_log if args.access_log else sys.stderr
        )

    app = ServeApp(trace_dir=trace_dir, access_log=access_log)
    try:
        server = build_server((args.host, args.port), app,
                              verbose=args.verbose)
    except OSError as exc:
        print(f"python -m repro serve: error: cannot bind "
              f"{args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1

    warm_list = [b.strip() for b in args.warm.split(",") if b.strip()]
    if warm_list:
        _warm(warm_list, args.warm_scale)

    stop = {"signum": None}

    def request_shutdown(signum, frame):
        if stop["signum"] is not None:
            return  # already draining; a second signal changes nothing
        stop["signum"] = signum
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, request_shutdown)
        except ValueError:  # pragma: no cover — not the main thread
            pass

    host, port = server.server_address[:2]
    # The serving line is a contract: tests and the CI smoke job parse
    # the bound port out of it (needed for --port 0).
    print(f"[serve] listening on http://{host}:{port} "
          f"(endpoints: /v1/compile /v1/simulate /v1/explain "
          f"/v1/trace /healthz /metrics)", flush=True)
    if trace_dir is not None:
        print(f"[serve] tracing to {trace_dir} "
              f"(python -m repro trace show <id> --dir {trace_dir})",
              flush=True)
    from repro.obs.context import telemetry

    try:
        # Install the app's registry as the process-wide metrics sink:
        # the telemetry context is module-global, so every request
        # thread's counters (cache hits, campaign counters, serve_*)
        # land where GET /metrics reads them.
        with telemetry(metrics=app.registry):
            server.serve_forever()
    finally:
        server.server_close()  # joins handler threads: the drain
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    if stop["signum"] == signal.SIGTERM:
        print("[serve] drained and stopped (SIGTERM)", flush=True)
        return EXIT_SIGTERM
    if stop["signum"] == signal.SIGINT:
        print("[serve] drained and stopped (SIGINT)", flush=True)
        return EXIT_SIGINT
    return 0


if __name__ == "__main__":
    sys.exit(main())
