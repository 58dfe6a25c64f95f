"""Span recording for the traced benchmark run.

Spans are kept in memory and written once, at exit, so recording costs
a list append per call.  They are opened by wrappers that this module
installs over the *public* entry points of ``repro`` -- nothing inside
``src/`` knows it is being traced.  A span is a dict::

    {"id": "h12", "name": "sim.run", "start": ns, "end": ns,
     "parent": "h11" | None, "op": 3 | None, "tid": ..., "pid": ...,
     "args": {...}}

Ids carry a per-process tag so the harness's spans and the traced
server's spans can be merged into one file.  Timestamps come from
``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux), which every
process on the host shares.

A thread whose span stack is empty parents its spans under
``Tracer.root``: the query server runs engine calls on executor
threads, and ``root`` is the HTTP request being handled (the client is
closed-loop, so there is one at a time).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


class Tracer:
    """In-memory span recorder plus the patch list that feeds it."""

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.pid = os.getpid()
        self.spans: List[Dict[str, Any]] = []
        self.root: Optional[str] = None
        self.op: Optional[int] = None
        #: Networks built inside the current ``measure_load_point``;
        #: read for their ``repro.core`` counters when it returns.
        self.nocs: List[Any] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ------------------------------------------------------------
    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Dict[str, Any]:
        stack = self._stack()
        span = {
            "id": f"{self.tag}{next(self._ids)}",
            "name": name,
            "start": time.perf_counter_ns(),
            "end": None,
            "parent": stack[-1]["id"] if stack else self.root,
            "op": self.op,
            "tid": threading.get_ident(),
            "pid": self.pid,
            "args": {},
        }
        stack.append(span)
        return span

    def end(self, span: Dict[str, Any], **args: Any) -> None:
        span["end"] = time.perf_counter_ns()
        span["args"].update(args)
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    # -- patching ---------------------------------------------------------
    def patch(self, owner: Any, attr: str, name: str,
              after: Optional[Callable[..., Dict[str, Any]]] = None,
              before: Optional[Callable[..., Any]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(*args)`` runs just before the call and its return value
        is handed to ``after(state, result, *args)``, whose dict becomes
        the span's args.
        """
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            state = before(*args) if before is not None else None
            span = tracer.begin(name)
            result = None
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                extra = after(state, result, *args) if after is not None else {}
                tracer.end(span, **extra)

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def patch_async(self, owner: Any, attr: str, name: str,
                    on_enter: Callable[[Dict[str, Any], tuple], None]) -> None:
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        async def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            on_enter(span, args)
            try:
                return await orig(*args, **kwargs)
            finally:
                tracer.root = None
                tracer.end(span)

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


# -- wrappers over repro's public layers ------------------------------------

def install_sim_wrappers(tracer: Tracer) -> None:
    """``repro.network`` / ``repro.sim`` / ``repro.core`` boundaries."""
    from repro.network import experiments
    from repro.network.noc import Noc
    from repro.sim.kernel import Simulator

    def built(_state, noc, *_args):
        if noc is not None:
            tracer.nocs.append(noc)
        return {}

    tracer.patch(experiments.TopologyNocBuilder, "__call__", "network.build",
                 after=built)
    tracer.patch(Noc, "populate", "network.populate")

    def sim_before(sim, *_args):
        return sim.ticks_executed, sim.ticks_skipped, sim.cycle

    def sim_after(state, _result, sim, *_args):
        executed, skipped, cycle = state
        return {
            "ticks_executed": sim.ticks_executed - executed,
            "ticks_skipped": sim.ticks_skipped - skipped,
            "cycles": sim.cycle - cycle,
        }

    tracer.patch(Simulator, "run", "sim.run", before=sim_before, after=sim_after)
    tracer.patch(Simulator, "compile", "sim.compile")

    def measure_before(*_args):
        return len(tracer.nocs)

    def measure_after(mark, _result, *_args):
        nocs = tracer.nocs[mark:]
        del tracer.nocs[mark:]
        return {
            "flit_hops": sum(n.total_flits_carried() for n in nocs),
            "completed_txns": sum(n.total_completed() for n in nocs),
            "retransmissions": sum(n.total_retransmissions() for n in nocs),
        }

    # Module attributes, so calls through ``experiments.<name>`` (the
    # harness's and load_sweep's own lane calls) go through the wrapper.
    tracer.patch(experiments, "measure_load_point", "network.measure_load_point",
                 before=measure_before, after=measure_after)
    tracer.patch(experiments, "load_sweep", "network.load_sweep")


def install_serve_wrappers(tracer: Tracer) -> Dict[str, Any]:
    """``repro.serve`` / ``repro.store`` / ``repro.flow`` boundaries in
    the server process.  HTTP requests get op ids in arrival order from
    -1 (the untimed warm-up query).  Returns a dict that ends up holding
    the live :class:`QueryServer` (for the store's final ``stats()``)."""
    from repro.serve import dispatch, http, service
    from repro.store import ResultStore

    seen: Dict[str, Any] = {"server": None}
    requests = itertools.count(-1)

    def on_request(span, args):
        seen["server"] = args[0]
        tracer.op = next(requests)
        span["op"] = tracer.op
        tracer.root = span["id"]

    tracer.patch_async(http.QueryServer, "handle", "serve.http.handle", on_request)
    tracer.patch(http, "parse_query", "serve.parse_query")
    tracer.patch(service.QueryEngine, "keys", "serve.keys")
    tracer.patch(service.QueryEngine, "lookup", "serve.lookup")
    tracer.patch(service.QueryEngine, "query", "serve.query")
    tracer.patch(service, "pareto_frontier", "serve.pareto")

    def dispatch_after(_state, _result, disp, *_args):
        # Farm-worker compute comes from the manifests the runner
        # already returns, not from spans inside the workers.
        computed = [m.seconds for m in disp.runner.last_manifests if not m.cached]
        return {"workers": disp.workers, "point_seconds": computed}

    tracer.patch(dispatch.WorkStealingDispatcher, "map", "serve.dispatch",
                 after=dispatch_after)

    def get_after(_state, result, *_args):
        return {"hit": bool(result and result[0])}

    tracer.patch(ResultStore, "get", "store.get", after=get_after)
    tracer.patch(ResultStore, "put", "store.put")
    return seen


# -- output ---------------------------------------------------------------

def chrome_trace(spans: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Spans as Chrome trace-event JSON (opens in ui.perfetto.dev)."""
    spans = list(spans)
    base = min((s["start"] for s in spans), default=0)
    events = []
    for s in spans:
        args = {"id": s["id"], "parent": s["parent"], "op": s["op"]}
        args.update({k: v for k, v in s["args"].items() if k != "point_seconds"})
        events.append({
            "name": s["name"],
            "cat": s["name"].split(".", 1)[0],
            "ph": "X",
            "ts": (s["start"] - base) / 1000.0,
            "dur": (s["end"] - s["start"]) / 1000.0,
            "pid": s["pid"],
            "tid": s["tid"],
            "args": args,
        })
    events.sort(key=lambda e: (e["ts"], -e["dur"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_json(path: str, doc: Any) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


# -- per-layer metrics ------------------------------------------------------

def self_times(spans: List[Dict[str, Any]]) -> Dict[str, int]:
    """Span id -> duration minus the part its children cover (ns)."""
    children: Dict[str, List[Tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0, s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


#: Every per-layer metric, in print order, with its unit.
PER_LAYER_UNITS = {
    "network.build_ms": "ms",
    "network.populate_ms": "ms",
    "network.measure_self_ms": "ms",
    "sim.run_ms": "ms",
    "sim.run_share": "fraction",
    "sim.ticks_executed": "count",
    "sim.ticks_skipped": "count",
    "sim.skip_ratio": "fraction",
    "sim.ns_per_tick": "ns",
    "sim.ns_per_cycle": "ns",
    "sim.compile_ms": "ms",
    "sim.cycles_per_s": "cycles/s",
    "core.flit_hops": "count",
    "core.completed_txns": "count",
    "core.retransmissions": "count",
    "core.ns_per_flit_hop": "ns",
    "serve.http.rtt_hit_ms": "ms",
    "serve.http.rtt_miss_ms": "ms",
    "serve.http.handle_ms": "ms",
    "serve.parse_ms": "ms",
    "serve.keys_ms": "ms",
    "serve.keys_calls_per_query": "count",
    "serve.lookup_ms": "ms",
    "serve.query_ms": "ms",
    "serve.pareto_ms": "ms",
    "serve.dispatch_ms": "ms",
    "flow.point_ms": "ms",
    "flow.points_computed": "count",
    "flow.runner.pool_overhead_share": "fraction",
    "store.get_us": "us",
    "store.gets_per_query": "count",
    "store.hit_ratio": "fraction",
    "store.put_ms": "ms",
    "store.puts": "count",
    "store.corrupt_records": "count",
    "store.conflicts": "count",
    "trace.untraced_throughput_per_s": "1/s",
    "trace.traced_throughput_per_s": "1/s",
    "trace.overhead_share": "fraction",
}

#: Per-op self time (ms, median over traced ops) of these span names.
_PER_OP_SELF = {
    "network.build_ms": ("network.build",),
    "network.populate_ms": ("network.populate",),
    "network.measure_self_ms": ("network.measure_load_point", "network.load_sweep"),
    "sim.run_ms": ("sim.run",),
    "sim.compile_ms": ("sim.compile",),
    "serve.http.handle_ms": ("serve.http.handle",),
    "serve.parse_ms": ("serve.parse_query",),
    "serve.keys_ms": ("serve.keys",),
    "serve.lookup_ms": ("serve.lookup",),
    "serve.query_ms": ("serve.query",),
    "serve.pareto_ms": ("serve.pareto",),
}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: List[Dict[str, Any]],
    op_wall_s: Dict[int, float],
    prefix: int,
    extra: Dict[str, float],
    seed_point_seconds: Iterable[float] = (),
) -> Dict[str, float]:
    """Reduce traced spans to the per-layer metrics.

    ``op_wall_s`` maps each traced op id to its wall seconds.  Counts
    marked exact in the README are summed over ops ``[0, prefix)``
    only, so they repeat bit-for-bit for a seed whatever the host
    speed.  ``extra`` supplies values measured outside spans (store
    stats, the seeding sweep's pool overhead, the overhead comparison);
    ``seed_point_seconds`` are the seeding sweep's per-point compute
    times, pooled into ``flow.point_ms``.
    """
    spans = [s for s in spans if s["op"] in op_wall_s]
    selfs = self_times(spans)
    ops = sorted(op_wall_s)
    exact = [op for op in ops if op < prefix]
    by_op: Dict[int, List[Dict[str, Any]]] = {op: [] for op in ops}
    for s in spans:
        by_op[s["op"]].append(s)

    def named(op_spans, *names):
        return [s for s in op_spans if s["name"] in names]

    m: Dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}
    for metric, names in _PER_OP_SELF.items():
        m[metric] = _median([
            sum(selfs[s["id"]] for s in named(by_op[op], *names)) / 1e6
            for op in ops
        ])

    runs = named(spans, "sim.run")
    run_ns = sum(selfs[s["id"]] for s in runs)
    executed = sum(s["args"]["ticks_executed"] for s in runs)
    cycles = sum(s["args"]["cycles"] for s in runs)
    measures = named(spans, "network.measure_load_point")
    hops = sum(s["args"]["flit_hops"] for s in measures)
    m["sim.run_share"] = _ratio(run_ns / 1e9, sum(op_wall_s.values()))
    m["sim.ns_per_tick"] = _ratio(run_ns, executed)
    m["sim.ns_per_cycle"] = _ratio(run_ns, cycles)
    m["sim.cycles_per_s"] = _ratio(cycles, sum(op_wall_s.values()))
    m["core.ns_per_flit_hop"] = _ratio(run_ns, hops)

    ex_spans = [s for op in exact for s in by_op[op]]
    ex_runs = named(ex_spans, "sim.run")
    ex_exec = sum(s["args"]["ticks_executed"] for s in ex_runs)
    ex_skip = sum(s["args"]["ticks_skipped"] for s in ex_runs)
    m["sim.ticks_executed"] = ex_exec
    m["sim.ticks_skipped"] = ex_skip
    m["sim.skip_ratio"] = _ratio(ex_skip, ex_exec + ex_skip)
    ex_measures = named(ex_spans, "network.measure_load_point")
    m["core.flit_hops"] = sum(s["args"]["flit_hops"] for s in ex_measures)
    m["core.completed_txns"] = sum(s["args"]["completed_txns"] for s in ex_measures)
    m["core.retransmissions"] = sum(s["args"]["retransmissions"] for s in ex_measures)

    rtts = named(spans, "serve.http.rtt")
    for outcome in ("hit", "miss"):
        m[f"serve.http.rtt_{outcome}_ms"] = _median([
            (s["end"] - s["start"]) / 1e6 for s in rtts if s["args"]["outcome"] == outcome
        ])
    ex_queries = len(named(ex_spans, "serve.http.rtt"))
    m["serve.keys_calls_per_query"] = _ratio(
        len(named(ex_spans, "serve.keys")), ex_queries)
    gets = named(spans, "store.get")
    m["store.get_us"] = _median([(s["end"] - s["start"]) / 1e3 for s in gets])
    ex_gets = named(ex_spans, "store.get")
    m["store.gets_per_query"] = _ratio(len(ex_gets), ex_queries)
    m["store.hit_ratio"] = _ratio(sum(s["args"]["hit"] for s in ex_gets), len(ex_gets))
    m["store.put_ms"] = _median([
        (s["end"] - s["start"]) / 1e6 for s in named(spans, "store.put")
    ])
    m["store.puts"] = len(named(ex_spans, "store.put"))

    dispatches = named(spans, "serve.dispatch")
    m["serve.dispatch_ms"] = _median([
        (s["end"] - s["start"]) / 1e6
        - 1e3 * sum(s["args"]["point_seconds"]) / s["args"]["workers"]
        for s in dispatches
    ])
    m["flow.points_computed"] = sum(
        len(s["args"]["point_seconds"]) for s in named(ex_spans, "serve.dispatch"))
    point_ms = [1e3 * sec for s in dispatches for sec in s["args"]["point_seconds"]]
    point_ms += [1e3 * sec for sec in seed_point_seconds]
    m["flow.point_ms"] = _median(point_ms)
    m.update(extra)
    return m
