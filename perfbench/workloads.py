"""The benchmark's two workloads: seeded inputs, one op, output checks.

Each workload is homogeneous -- one rate, one topology, one query mix;
only the per-op seed varies -- so its end-to-end numbers aggregate over
many alike ops (see README.md for why each exists).  ``op_input(i)`` is
a pure function of ``(workload, seed, size, i)``: the program receives
only these generated inputs.  ``check`` turns an op's output into a
digest and raises :class:`CheckFailed` when the output is wrong.
"""

from __future__ import annotations

import dataclasses
import hashlib
import http.client
import json
import math
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Per-size parameters.  ``full`` is what the benchmark measures;
#: ``tiny`` is for the self-tests.  ``period`` makes the simulation
#: inputs cycle, so the committed digests cover a run of any length;
#: ``prefix`` is the fixed op prefix that the run digest and the exact
#: per-layer counts are taken over (a run never stops before it).
#: ``min_ops`` keeps a run going until its tail percentile has ten
#: samples beyond it.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "mc_sparse": {"warmup": 500, "measure": 15000, "period": 64,
                      "prefix": 8, "min_ops": 8},
        "dse_query": {"topologies": ("mesh-2x2", "mesh-3x3", "torus-3x3",
                                     "ring-6", "star-5", "spidergon-6"),
                      "golden_ops": 2000, "prefix": 200, "min_ops": 1000},
    },
    "tiny": {
        "mc_sparse": {"warmup": 50, "measure": 1500, "period": 4,
                      "prefix": 2, "min_ops": 2},
        "dse_query": {"topologies": ("mesh-2x2", "ring-4"),
                      "golden_ops": 40, "prefix": 40, "min_ops": 40},
    },
}

MC_RATE = 0.0005
MC_REPLICAS = 4
MISS_EVERY = 20
SEED_JOBS = 2


class CheckFailed(Exception):
    """An op's output is wrong."""


def digest(doc: Any) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rng(*parts: Any) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of ``pid`` (default: this process)."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


class Workload:
    name = ""
    #: The ``repro`` modules the workload uses, imported before the
    #: harness's import time is read (part of ``setup_s``).
    imports: Sequence[str] = ()
    #: The harness's root span per traced op.
    op_span = "bench.op"
    #: Simulated cycles (all lanes) per op, for the report.
    cycles_per_op: Optional[int] = None
    #: Compute seconds of each point set-up computed (seeding sweeps).
    seed_point_seconds: Sequence[float] = ()

    def __init__(self, seed: int, size: str, work_dir: str) -> None:
        self.seed = seed
        self.size = size
        self.params = SIZES[size][self.name]
        self.work_dir = work_dir
        self.prefix = self.params["prefix"]
        self.min_ops = self.params["min_ops"]

    def setup(self) -> None:
        """One set-up trial: fixtures plus one untimed warm-up op.
        The harness calls ``teardown()`` between trials."""

    def run_op(self, inp: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def check(self, i: int, inp: Dict[str, Any], out: Any) -> str:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def golden_index(self, i: int) -> Optional[int]:
        """Position of op ``i`` in the committed digest list, if any."""
        return None

    def is_miss(self, inp: Dict[str, Any]) -> bool:
        return False

    def trace_start(self, tracer: Any) -> None:
        """Install span wrappers; the traced ops follow."""

    def trace_stop(self, spans: List[Dict[str, Any]]) -> Dict[str, float]:
        """End tracing.  Appends spans recorded by other processes to
        ``spans``; returns per-layer values measured outside spans."""
        return {}

    def teardown(self) -> None:
        """Stop everything set-up started."""


# -- the simulation workload ----------------------------------------------

def load_point_doc(p: Any) -> Dict[str, Any]:
    """Every simulated statistic a LoadPoint carries (manifest excluded:
    it holds wall seconds)."""
    return {
        "offered_rate": repr(p.offered_rate),
        "accepted_rate": repr(p.accepted_rate),
        "mean_latency": repr(p.mean_latency),
        "p95_latency": repr(p.p95_latency),
        "completed": p.completed,
        "replicas": p.replicas,
        "ci95": None if p.ci95 is None else {k: repr(v) for k, v in sorted(p.ci95.items())},
    }


class McSparse(Workload):
    name = "mc_sparse"
    imports = ("repro.network.experiments",)
    rate = MC_RATE
    lanes = MC_REPLICAS

    def __init__(self, seed: int, size: str, work_dir: str) -> None:
        super().__init__(seed, size, work_dir)
        self.cycles_per_op = self.lanes * (self.params["warmup"] + self.params["measure"])
        self.warmup_digests: List[str] = []

    def op_input(self, i: int) -> Dict[str, Any]:
        j = i % self.params["period"]
        return {"index": j, "seed": _rng(self.name, self.seed, j).randrange(2 ** 31)}

    def golden_index(self, i: int) -> Optional[int]:
        return i % self.params["period"]

    def trace_start(self, tracer: Any) -> None:
        from tracing import install_sim_wrappers

        install_sim_wrappers(tracer)

    def setup(self) -> None:
        from repro.core.config import LinkConfig
        from repro.network.experiments import TopologyNocBuilder
        from repro.network.noc import NocBuildConfig
        from repro.network.topology import mesh

        self.builder = TopologyNocBuilder(
            mesh, (4, 4), n_initiators=8, n_targets=8,
            config=NocBuildConfig(link=LinkConfig(stages=2, error_rate=0.01)),
        )
        inp = self.op_input(0)
        self.warmup_digests.append(self.check(0, inp, self.run_op(inp)))

    def run_op(self, inp: Dict[str, Any]) -> Any:
        from repro.network import experiments

        points = experiments.load_sweep(
            self.builder, [self.rate],
            warmup_cycles=self.params["warmup"],
            measure_cycles=self.params["measure"],
            replicas=self.lanes,
            seed=inp["seed"],
        )
        if len(points) != 1:
            raise CheckFailed(f"expected one reduced point, got {len(points)}")
        return points[0]

    def _sane(self, p: Any) -> None:
        if p.offered_rate != self.rate or p.replicas != self.lanes:
            raise CheckFailed(f"wrong point identity: {p}")
        if p.completed <= 0 or not math.isfinite(p.mean_latency):
            raise CheckFailed(f"no finite-latency traffic completed: {p}")
        # 8 masters offer ``rate`` each; twice that is out of reach.
        if not 0 < p.accepted_rate <= 2 * 8 * self.rate:
            raise CheckFailed(f"accepted rate out of range: {p}")
        ci = p.ci95 or {}
        if sorted(ci) != ["accepted_rate", "mean_latency", "p95_latency"] or not all(
            math.isfinite(v) and v >= 0 for v in ci.values()
        ):
            raise CheckFailed(f"bad confidence intervals: {p}")

    def check(self, i: int, inp: Dict[str, Any], out: Any) -> str:
        self._sane(out)
        d = digest(load_point_doc(out))
        # Op 0 repeats the warm-up op's input: the simulator is
        # deterministic, so every set-up trial and op 0 must agree.
        if inp["index"] == 0 and any(w != d for w in self.warmup_digests):
            raise CheckFailed(f"op {i} is not repeatable: {d} vs {self.warmup_digests}")
        return d


# -- the query service ------------------------------------------------------

#: Random constraint values; the seeded designs all run at 1000 MHz and
#: span roughly 11-21 ns, 0.6-3.3 mm2 and 130-700 mW.
MIN_FREQ = (0, 800, 1000)
MAX_LATENCY = (None, 13.0, 16.0)
MAX_AREA = (None, 1.0, 1.5)
MAX_POWER = (None, 250.0, 400.0)
OBJECTIVE_NAMES = ("area", "power", "latency")
CORE_GRAPH_NAMES = ("multimedia", "telecom")


def server_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH", "")) if p
    )
    return env


class Server:
    """One ``repro serve`` subprocess, stdout in a log file."""

    def __init__(self, argv: List[str], log_path: str) -> None:
        self.log_path = log_path
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                cwd=ROOT, env=server_env(),
            )
        deadline = time.monotonic() + 60
        while True:
            with open(log_path) as fh:
                m = re.search(r"serving on http://([\d.]+):(\d+)", fh.read())
            if m:
                self.host, self.port = m.group(1), int(m.group(2))
                return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                with open(log_path) as fh:
                    raise RuntimeError(f"server did not start:\n{fh.read()[-2000:]}")
            time.sleep(0.02)

    def post(self, doc: Dict[str, Any]) -> "tuple[int, bytes]":
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request("POST", "/query", body=json.dumps(doc),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then wait; kill if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


def answer_doc(points, best, frontier, hits, misses, served_from) -> Dict[str, Any]:
    """The checked part of a /query answer (wall ``seconds`` excluded)."""
    return {
        "points": points, "best": best, "frontier": frontier,
        "store_hits": hits, "store_misses": misses, "served_from": served_from,
    }


class DseQuery(Workload):
    name = "dse_query"
    imports = ("repro.flow.dse", "repro.flow.runner", "repro.serve.service", "repro.store")
    op_span = "serve.http.rtt"

    def __init__(self, seed: int, size: str, work_dir: str) -> None:
        super().__init__(seed, size, work_dir)
        self.topologies = self.params["topologies"]
        self.miss_base = _rng(self.name, seed, "miss").randrange(1, 2 ** 30)
        self.server: Optional[Server] = None
        self.boots = 0
        self.store_dir: Optional[str] = None
        self.seeded: Dict[tuple, Any] = {}
        self.seed_wall_s = 0.0
        self.seed_point_seconds: List[float] = []
        self.seed_store_stats: Dict[str, int] = {}

    def op_input(self, i: int) -> Dict[str, Any]:
        rng = _rng(self.name, self.seed, i)
        doc: Dict[str, Any] = {"core_graph": rng.choice(CORE_GRAPH_NAMES)}
        miss = i % MISS_EVERY == MISS_EVERY - 1
        if miss:
            # A fresh seed is a point no one has computed in this store.
            doc["topologies"] = [rng.choice(self.topologies)]
            doc["seed"] = self.miss_base + i
            doc["wait"] = True
        else:
            doc["topologies"] = rng.sample(self.topologies, rng.randint(1, min(3, len(self.topologies))))
        doc["min_freq_mhz"] = rng.choice(MIN_FREQ)
        for name, choices in (("max_latency_ns", MAX_LATENCY),
                              ("max_area_mm2", MAX_AREA),
                              ("max_power_mw", MAX_POWER)):
            value = rng.choice(choices)
            if value is not None:
                doc[name] = value
        doc["objective"] = rng.choice(OBJECTIVE_NAMES)
        return doc

    # -- set-up -----------------------------------------------------------
    def _seed_store(self) -> None:
        """A cold sweep through the runner's per-point process pool."""
        from repro.flow.dse import explore_design_space
        from repro.flow.runner import ExperimentRunner
        from repro.serve.service import QuerySpec, core_graph_from_name, topology_from_name
        from repro.store import ResultStore

        defaults = QuerySpec()
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=self.work_dir)
        store = ResultStore(self.store_dir)
        runner = ExperimentRunner(jobs=SEED_JOBS, store=store)
        self.seeded = {}
        self.seed_point_seconds = []
        t0 = time.perf_counter()
        for cg in CORE_GRAPH_NAMES:
            points = explore_design_space(
                core_graph_from_name(cg),
                [topology_from_name(t) for t in self.topologies],
                runner=runner,
            )
            self.seed_point_seconds += [m.seconds for m in runner.last_manifests if not m.cached]
            # explore_design_space's combo order, at the query defaults.
            grid = [(t, w, d) for t in self.topologies
                    for w in defaults.flit_widths for d in defaults.buffer_depths]
            for (t, w, d), p in zip(grid, points):
                if (p.flit_width, p.buffer_depth) != (w, d):
                    raise RuntimeError(f"seeding sweep out of combo order at {p}")
                self.seeded[(cg, t, w, d)] = p
        self.seed_wall_s = time.perf_counter() - t0
        self.seed_store_stats = store.stats()

    def start_server(self, spans_out: Optional[str] = None) -> None:
        """Boot ``repro serve``; with ``spans_out``, under the launcher
        that installs the span wrappers and writes spans there."""
        if spans_out is None:
            argv = [sys.executable, "-m", "repro", "serve"]
        else:
            argv = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                    "--spans-out", spans_out, "--"]
        argv += ["--store", self.store_dir, "--port", "0"]
        self.boots += 1
        self.server = Server(argv, os.path.join(self.work_dir, f"server-{self.boots}.log"))
        # One untimed warm-up query: op 0 is always a store hit.
        inp = self.op_input(0)
        self.check(0, inp, self.run_op(inp))

    def setup(self) -> None:
        self._seed_store()
        self.start_server()

    def teardown(self) -> None:
        self.stop_server()
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None

    def trace_start(self, tracer: Any) -> None:
        # The server stays a subprocess: reboot it under the launcher
        # that installs the wrappers.  Its first request is the warm-up.
        self.stop_server()
        self.spans_out = os.path.join(self.work_dir, "server-spans.json")
        self.start_server(self.spans_out)

    def trace_stop(self, spans: List[Dict[str, Any]]) -> Dict[str, float]:
        self.stop_server()
        with open(self.spans_out, encoding="utf-8") as fh:
            server = json.load(fh)
        # Keep the traced ops' request spans (not the warm-up's), each
        # hung under the client round trip of the same op.
        rtt = {s["op"]: s["id"] for s in spans if s["name"] == self.op_span}
        for s in server["spans"]:
            if s["op"] in rtt:
                s["parent"] = s["parent"] or rtt[s["op"]]
                spans.append(s)
        stats = {k: server["store_stats"].get(k, 0) + v
                 for k, v in self.seed_store_stats.items()}
        return {
            "store.corrupt_records": stats["corrupt_records"],
            "store.conflicts": stats["conflicts"],
            "flow.runner.pool_overhead_share":
                1 - sum(self.seed_point_seconds) / (self.seed_wall_s * SEED_JOBS),
        }

    def stop_server(self) -> None:
        if self.server is not None:
            server, self.server = self.server, None
            server.stop()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.server.proc.pid)

    def golden_index(self, i: int) -> Optional[int]:
        return i if 0 <= i < self.params["golden_ops"] else None

    # -- ops --------------------------------------------------------------
    def run_op(self, inp: Dict[str, Any]) -> Any:
        return self.server.post(inp)

    def is_miss(self, inp: Dict[str, Any]) -> bool:
        return bool(inp.get("wait"))

    def expected(self, inp: Dict[str, Any]) -> Dict[str, Any]:
        """The answer computed here, without the service: hits from the
        seeding sweep's own results, misses by a serial in-process
        ``explore_design_space``."""
        from repro.flow.dse import explore_design_space, pareto_frontier
        from repro.serve.service import (
            OBJECTIVES, core_graph_from_name, parse_query, topology_from_name,
        )

        spec = parse_query({k: v for k, v in inp.items() if k != "wait"})
        if self.is_miss(inp):
            points = explore_design_space(
                core_graph_from_name(spec.core_graph),
                [topology_from_name(t) for t in spec.topologies],
                seed=spec.seed,
            )
        else:
            points = [
                self.seeded[(spec.core_graph, t, w, d)]
                for t in spec.topologies
                for w in spec.flit_widths
                for d in spec.buffer_depths
            ]
        ok = [p for p in points if spec.meets_constraints(p)]
        best = min(ok, key=OBJECTIVES[spec.objective]) if ok else None
        n = len(points)
        asdict = dataclasses.asdict
        return answer_doc(
            [asdict(p) for p in points],
            None if best is None else asdict(best),
            [asdict(p) for p in pareto_frontier(points)],
            0 if self.is_miss(inp) else n,
            n if self.is_miss(inp) else 0,
            "farm" if self.is_miss(inp) else "store",
        )

    def check(self, i: int, inp: Dict[str, Any], out: Any) -> str:
        status, body = out
        if status != 200:
            raise CheckFailed(f"HTTP {status}: {body[:300]!r}")
        doc = json.loads(body)
        got = answer_doc(doc["points"], doc["best"], doc["frontier"],
                         doc["store_hits"], doc["store_misses"], doc["served_from"])
        if got != self.expected(inp):
            raise CheckFailed(f"answer to op {i} differs from the direct computation")
        return digest(got)
