"""One timed-region stream, valid metric names, and a golden manifest.

- A traced serial run has one span hierarchy: the in-process
  :class:`~repro.obs.spans.SpanTree`, the spool's ``parent_id`` edges
  and ``trace-report`` over the spool all name the same span paths.
- Every exported metric family name is a valid OpenMetrics name.
- A serial ``all`` at reduced scale reproduces the manifest's
  simulated-statistics totals and per-stage call/event counts recorded
  in ``tests/golden_all_manifest.json``.
"""

import json
import os
import re
import shutil
import subprocess
import sys

from repro import __main__ as repro_main
from repro.obs import SpanTree, summarize_trace, telemetry, traceview
from repro.obs.spans import PATH_SEP

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(REPO, "tests", "golden_all_manifest.json")

#: OpenMetrics metric family names.
METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")


def _capture_cli_tree(monkeypatch):
    """Make the CLI's run span tree visible to the test."""
    trees = []

    class CapturedTree(SpanTree):
        def __init__(self):
            super().__init__()
            trees.append(self)

    monkeypatch.setattr(repro_main, "SpanTree", CapturedTree)
    return trees


def _spool_paths(records):
    """Each spool record's span path, rebuilt from ``parent_id`` edges."""
    by_id = {record["span_id"]: record for record in records}
    paths = {}
    for span_id, record in by_id.items():
        names = [record["name"]]
        parent = record["parent_id"]
        while parent is not None:
            names.append(by_id[parent]["name"])
            parent = by_id[parent]["parent_id"]
        paths[span_id] = PATH_SEP.join(reversed(names))
    return paths


def _family_names(text):
    return [line.split()[2] for line in text.splitlines()
            if line.startswith("# TYPE ")]


def test_span_tree_matches_the_spool(tmp_path, monkeypatch, capsys):
    trees = _capture_cli_tree(monkeypatch)
    trace_dir = tmp_path / "trace"
    assert repro_main.main([
        "fig5", "--scale", "0.05", "--benchmarks", "gzip", "--jobs", "1",
        "--trace-dir", str(trace_dir),
    ]) == 0
    capsys.readouterr()
    (tree,) = trees
    tree_paths = {PATH_SEP.join(path) for path in tree.paths()}

    (spool,) = traceview.spool_paths(str(trace_dir))
    records, _files, corrupt = traceview.read_spools(str(trace_dir))
    assert corrupt == 0
    rebuilt = _spool_paths(records)
    assert set(rebuilt.values()) == tree_paths
    # Each record's own path agrees with its parent edges.
    assert all(r["path"] == rebuilt[r["span_id"]] for r in records)
    for paths in (tree_paths, set(rebuilt.values())):
        assert "repro.fig5/cell/simulate" in paths
        assert "simulate" not in paths

    # trace-report reads the spool as span.end records: same spans.
    summary = summarize_trace(spool)
    assert summary["by_type"] == {"span.end": len(records)}
    assert set(summary["spans"]) == tree_paths
    for key, entry in summary["spans"].items():
        assert entry["calls"] == tree.get(key.split(PATH_SEP))["calls"]


def test_exported_metric_names_are_openmetrics_names(tmp_path, capsys):
    path = tmp_path / "metrics.txt"
    assert repro_main.main([
        "fig5", "--scale", "0.05", "--benchmarks", "gzip", "--jobs", "1",
        "--metrics", str(path), "--metrics-format", "openmetrics",
    ]) == 0
    capsys.readouterr()
    names = _family_names(path.read_text())
    assert "sim_cycles" in names
    assert [n for n in names if not METRIC_NAME.match(n)] == []

    from repro.serve.app import ServeApp

    app = ServeApp(trace_dir=str(tmp_path / "serve-trace"))
    with telemetry(metrics=app.registry):
        status, _body, meta = app.handle_request(
            "compile", {"benchmark": "gzip", "scale": 0.05})
    assert status == 200 and meta["trace_id"]
    status, body = app.metrics()
    assert status == 200
    names = _family_names(body.decode("utf-8"))
    assert "serve_requests" in names
    assert [n for n in names if not METRIC_NAME.match(n)] == []


def test_serial_all_matches_the_golden_manifest(tmp_path):
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    manifest = tmp_path / "manifest.json"
    subprocess.run(
        [sys.executable, "-m", "repro", "all", "--scale", "0.05",
         "--benchmarks", "gzip,mcf", "--jobs", "1",
         "--cache-dir", str(tmp_path / "cache"),
         "--manifest", str(manifest)],
        cwd=tmp_path, env=env, check=True, capture_output=True,
    )
    data = json.loads(manifest.read_text())
    totals = {name: data["metrics"][name]["value"]
              for name in golden["sim_totals"]}
    assert totals == golden["sim_totals"]
    phases = {name: {"calls": entry["calls"], "events": entry["events"]}
              for name, entry in data["phases"].items()}
    assert phases == golden["phases"]


def test_cli_schemas_load_outside_a_source_checkout(tmp_path):
    """A copy of the package validates its own output anywhere."""
    site = tmp_path / "site"
    shutil.copytree(os.path.join(REPO, "src", "repro"), site / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    work = tmp_path / "work"
    work.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(site)

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args], cwd=work, env=env,
            check=True, capture_output=True, text=True,
        ).stdout

    data = json.loads(run("profile", "gzip", "--scale", "0.05", "--json"))
    assert data["workload"] == "gzip"

    trace_dir = work / "trace"
    run("fig5", "--scale", "0.05", "--benchmarks", "gzip",
        "--trace-dir", str(trace_dir))
    (trace,) = traceview.list_traces(str(trace_dir))
    timeline = json.loads(run("trace", "show", trace["trace_id"],
                              "--dir", str(trace_dir), "--json"))
    assert timeline["trace_id"] == trace["trace_id"]
    assert timeline["orphans"] == []
