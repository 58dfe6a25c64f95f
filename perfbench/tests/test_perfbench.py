"""Self-tests of the benchmark harness (not of ``repro``).

    PYTHONPATH=src python -m pytest perfbench/tests -q

Each test drives ``run.py`` the way the benchmark is driven, at the
``tiny`` size so that a run takes seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

WORKLOADS = ("mc_sparse", "dse_query")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run(workload, *extra, cwd=ROOT, bench=BENCH):
    cmd = [sys.executable, os.path.join(bench, "run.py"), "--workload", workload,
           "--size", "tiny", "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(doc) == ["attempted", "correct", "failed", "metrics"]
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    return doc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    doc = result_of(run(workload, "--seed", "0", "--trace", "0"))
    assert doc["correct"] and doc["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert all(v["value"] > 0 for v in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_golden_digest_fails_ops(workload, tmp_path):
    with open(os.path.join(BENCH, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    digests = golden["tiny"][workload]["digests"]
    digests[0] = "0" * len(digests[0])
    tampered = tmp_path / "golden.json"
    tampered.write_text(json.dumps(golden))
    doc = result_of(run(workload, "--seed", "0", "--golden", str(tampered)))
    assert doc["failed"] >= 1 and not doc["correct"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    cls = {"mc_sparse": workloads.McSparse, "dse_query": workloads.DseQuery}[name]

    def inputs(seed):
        wl = cls(seed, "full", str(tmp_path))
        return [wl.op_input(i) for i in range(wl.prefix)]

    a, b, c = inputs(3), inputs(3), inputs(4)
    assert a == b
    assert len(c) == len(a) and c != a
    if name == "dse_query":
        assert [bool(x.get("wait")) for x in a] == [bool(x.get("wait")) for x in c]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_writes_a_linked_trace(workload, tmp_path):
    out = tmp_path / "trace.json"
    doc = result_of(run(workload, "--seed", "0", "--trace", "1",
                        "--trace-out", str(out)))
    assert doc["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want

    trace = json.loads(out.read_text())
    events = trace["traceEvents"]
    assert events
    ids = {e["args"]["id"] for e in events}
    assert len(ids) == len(events)
    for e in events:
        assert e["ph"] == "X" and e["dur"] >= 0 and e["ts"] >= 0
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
        parent = e["args"]["parent"]
        assert parent is None or parent in ids
    names = {e["name"] for e in events}
    if workload == "dse_query":
        assert {"serve.http.rtt", "serve.http.handle", "serve.keys",
                "store.get", "serve.dispatch", "store.put"} <= names
        # Server request spans hang under the client's round trip.
        handles = [e for e in events if e["name"] == "serve.http.handle"]
        assert all(h["args"]["parent"] is not None for h in handles)
    else:
        assert {"bench.op", "network.load_sweep", "network.measure_load_point",
                "network.build", "sim.run"} <= names


EXACT = ("sim.ticks_executed", "sim.ticks_skipped", "sim.skip_ratio",
         "core.flit_hops", "core.completed_txns", "core.retransmissions",
         "serve.keys_calls_per_query", "store.gets_per_query", "store.hit_ratio",
         "store.puts", "flow.points_computed", "store.corrupt_records",
         "store.conflicts")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload, tmp_path):
    def exact():
        doc = result_of(run(workload, "--seed", "5", "--trace", "1",
                            "--trace-out", str(tmp_path / "t.json")))
        return {k: doc["metrics"][k]["value"] for k in EXACT}

    first = exact()
    busy = "sim.ticks_executed" if workload == "mc_sparse" else "store.puts"
    assert first[busy] > 0
    assert first["store.corrupt_records"] == first["store.conflicts"] == 0
    assert exact() == first


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(BENCH, bench, ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run("mc_sparse", cwd=str(tmp_path), bench=str(bench))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_the_union_of_children():
    from tracing import self_times

    def span(sid, parent, start, end):
        return {"id": sid, "parent": parent, "start": start, "end": end}

    spans = [span("p", None, 0, 100), span("a", "p", 10, 30), span("b", "p", 20, 40),
             span("c", "p", 25, 35), span("d", "p", 90, 120)]
    # Children cover [10, 40) and, clipped to the parent, [90, 100).
    assert self_times(spans) == {"p": 60, "a": 20, "b": 20, "c": 10, "d": 30}


def test_times_scale_to_the_reference_host():
    from run import REFERENCE_S, to_reference

    # On a host twice as slow as the reference, every time halves.
    assert to_reference(1.0, [2 * REFERENCE_S] * 4) == pytest.approx(0.5)
    assert to_reference(1.0, [REFERENCE_S, REFERENCE_S]) == pytest.approx(1.0)
