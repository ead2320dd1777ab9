"""``python -m repro compile`` — run the selection pipeline standalone.

Compiles one benchmark's profile into a binary annotation through the
pass-manager pipeline, from either a registered preset (``--config``)
or a declarative pipeline spec (``--pipeline``)::

    python -m repro compile --benchmark twolf --config all-best-heur
    python -m repro compile --benchmark twolf \
        --pipeline "exact,freq,short,ret,loop,cost:edge" -o marks.json
    python -m repro compile --list

The emitted JSON is the exact :mod:`repro.core.annotation_io` document
the simulator consumes, so two invocations can be diffed byte-for-byte
— the CI ``pipeline-equivalence`` job does exactly that for the preset
and spec spellings of the same configuration.
"""

import argparse
import sys


def _print_transform_diff(original, state):
    """Unified before/after disassembly diff of a rewriting pipeline.

    Annotation-only pipelines leave the program untouched, so the diff
    is empty — a one-line note says so instead of printing nothing.
    """
    import difflib

    transform = state.transform
    if transform is None or not transform.changed:
        print("# no transform pass rewrote the program "
              "(annotation-only pipeline)")
        return
    before = original.disassemble().splitlines()
    after = transform.program.disassemble().splitlines()
    diff = difflib.unified_diff(
        before, after,
        fromfile=f"{original.name} (original)",
        tofile=f"{transform.program.name} (transformed)",
        lineterm="",
    )
    for line in diff:
        print(line)
    melds = ", ".join(
        f"pc {pc}->{record.new_pc} ({record.kind})"
        for pc, record in sorted(transform.melded.items())
    )
    print(f"# melded {len(transform.melded)} hammock(s): {melds}")


def main(argv=None):
    from repro.compiler import registry
    from repro.compiler.pipeline import format_spec, parse_spec
    from repro.workloads import scale_arg

    parser = argparse.ArgumentParser(
        prog="python -m repro compile",
        description=(
            "Profile-driven diverge-branch selection through the "
            "pass-manager pipeline (see docs/compiler.md)."
        ),
    )
    parser.add_argument(
        "--benchmark",
        metavar="NAME",
        help="workload to profile and compile (see repro.workloads)",
    )
    parser.add_argument(
        "--input-set",
        default="reduced",
        metavar="SET",
        help="profiling input set (default: reduced)",
    )
    parser.add_argument(
        "--scale",
        type=scale_arg,
        default=1.0,
        help="trace-length multiplier (default: 1.0)",
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--config",
        metavar="NAME",
        help="registered preset name (default: all-best-heur; "
             "see --list)",
    )
    group.add_argument(
        "--pipeline",
        metavar="SPEC",
        help="declarative pipeline spec, e.g. "
             "'exact,freq,short,ret,loop,cost:edge'",
    )
    parser.add_argument(
        "-o", "--output",
        metavar="OUT.json",
        default=None,
        help="write the annotation JSON here (default: stdout)",
    )
    parser.add_argument(
        "--diff",
        action="store_true",
        help="print a unified before/after disassembly diff of any "
             "program-rewriting passes (empty for annotation-only "
             "pipelines)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list registered presets (with their canonical specs) "
             "and exit",
    )
    args = parser.parse_args(argv)

    if args.list:
        width = max(len(name) for name in registry.names())
        for name in registry.names():
            spec = format_spec(registry.resolve(name))
            print(f"{name.ljust(width)}  {spec}")
        return 0
    if not args.benchmark:
        parser.error("--benchmark is required (or use --list)")

    try:
        if args.pipeline is not None:
            config = parse_spec(args.pipeline)
        else:
            config = registry.resolve(args.config or "all-best-heur")
    except (KeyError, ValueError) as exc:
        print(f"python -m repro compile: error: {exc}", file=sys.stderr)
        return 2

    from repro.compiler.pipeline import run_selection_pipeline
    from repro.core import annotation_io
    from repro.errors import ReproError
    from repro.experiments.runner import get_artifacts

    try:
        artifacts = get_artifacts(
            args.benchmark, input_set=args.input_set, scale=args.scale
        )
    except (KeyError, ValueError, ReproError) as exc:
        print(f"python -m repro compile: error: {exc}", file=sys.stderr)
        return 1

    state = run_selection_pipeline(
        artifacts.program, artifacts.profile, config
    )
    annotation = state.annotation
    text = annotation_io.dumps(annotation)

    if args.diff:
        _print_transform_diff(artifacts.program, state)

    if args.output:
        from repro.ioutil import ensure_parent

        with open(ensure_parent(args.output), "w",
                  encoding="utf-8") as handle:
            handle.write(text + "\n")
        sources = {}
        for branch in annotation:
            sources[branch.source] = sources.get(branch.source, 0) + 1
        breakdown = ", ".join(
            f"{name}: {count}" for name, count in sorted(sources.items())
        ) or "none"
        print(
            f"compiled {args.benchmark!r} with "
            f"{format_spec(config) or 'no passes'} — "
            f"{len(annotation)} diverge branches ({breakdown})"
        )
        print(f"annotation written to {args.output}")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
