"""Child-process entry: run the `repro` command line, optionally traced.

    python -u perfbench/entry.py READY_FILE SPANS_DIR ARGS...

Imports the `repro` CLI, writes `time.monotonic()` to READY_FILE (the
end of set-up: interpreter start plus imports), then runs
`repro.__main__.main(ARGS)` exactly as `python -m repro ARGS` would.
With a SPANS_DIR other than `-`, every layer entry point is wrapped in
a span first (see tracing.py) and the spans are written to SPANS_DIR
when the command returns.
"""

import sys
import time


def main():
    ready_file, spans_dir, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import repro.__main__ as cli

    recorder = None
    if spans_dir != "-":
        import tracing

        recorder = tracing.install(spans_dir, serve=argv[:1] == ["serve"])
    with open(ready_file, "w", encoding="utf-8") as handle:
        handle.write(repr(time.monotonic()))
    try:
        return cli.main(argv)
    finally:
        if recorder is not None:
            recorder.dump()


if __name__ == "__main__":
    sys.exit(main())
