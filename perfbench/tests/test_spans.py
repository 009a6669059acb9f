"""Span tracing: self time arithmetic, by-name imports, repeatable counts."""

import json
import os
import subprocess
import sys

import spans

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def test_self_time_is_duration_minus_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    table = tracer.span_table()
    assert table["inner"][0] == 3 and table["outer"][0] == 1
    root = tracer.end[0] - tracer.start[0]
    total_self = table["inner"][1] + table["outer"][1]
    assert abs(total_self - root) < 1e-12
    assert list(tracer.parent) == [-1, 0, 0, 0]


def _traced_run(tmp_path, tag):
    out = str(tmp_path / f"{tag}.csv")
    job = {"src": SRC, "trace": True, "context": False, "commands": [
        ["profile", "--scenario", "fig1a", "--solvers", "RTE,FDE,NORMAL",
         "--x-count", "11", "--out", out]]}
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"),
                           json.dumps(job)], capture_output=True, text=True,
                          timeout=300, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["commands"][0]["rc"] == 0
    return report["trace"]


def test_two_fresh_traced_runs_count_identically(tmp_path):
    a = _traced_run(tmp_path, "a")
    b = _traced_run(tmp_path, "b")
    counts = {k for k in a if not k.endswith("_s")}
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}

    nodes, points = 81, 11
    # the harness calls its own copies of invert and de_map: all seen
    assert a["ilt.invert.calls"] == points
    assert a["transport.spectrum.solved"] == nodes
    assert a["transport.density.calls"] == points * nodes
    assert a["transport.spectrum.calls"] == nodes + points * nodes
    assert a["ilt.node_map.calls"] == nodes + 2 * points * nodes
    # waiting's by-name copy of the exponential integral is traced too
    assert a["specfun.expint.calls"] == a["waiting.laplace_survival.calls"]
    assert a["fde.density.calls"] == points and a["fde.normal.calls"] == points
    assert a["fde.quad.calls"] > points and a["fde.quad.neval"] > a["fde.quad.calls"]
    assert a["harness.emit_csv.bytes"] == os.path.getsize(tmp_path / "a.csv")
