"""Top-level command line: quick tours of the library.

Usage::

    python -m repro info              # package inventory
    python -m repro demo              # run the quickstart network
    python -m repro mesh-case-study   # the paper's 2.6 mm2 headline
    python -m repro figures           # regenerate every paper figure
    python -m repro report --out DIR  # run a scenario with telemetry
    python -m repro faults            # fault-injection campaign demo
    python -m repro faults --smoke    # deterministic resilience smoke
    python -m repro top --dir DIR     # live dashboard over a run's events
    python -m repro bench-diff        # diff BENCH results vs trajectory
    python -m repro serve --store DIR # HTTP design-space query service

``figures`` accepts ``--jobs N`` (run sweep points on N worker
processes) and ``--cache DIR`` (memoize sweep results in a result
store at DIR, keyed by config hash -- see docs/PERFORMANCE.md).  Both
default off, preserving the sequential uncached behaviour.
``--checkpoint-every N``, ``--checkpoint-dir DIR`` and ``--resume``
make long campaigns crash-safe: completed points are journaled and
served from the store, and in-flight campaigns restart from their
last deterministic checkpoint instead of cycle 0 (see
docs/CHECKPOINT.md).

``report`` runs uniform random traffic on a mesh with the full
telemetry suite attached (see docs/OBSERVABILITY.md) and writes
``metrics.json`` (schema repro.telemetry/v1), ``trace.json`` (Chrome
trace-event format -- load it in https://ui.perfetto.dev or
``chrome://tracing``) and ``heatmap.txt``/``heatmap.csv`` (per-link
utilization).  Options: ``--mesh WxH``, ``--cycles N``, ``--rate R``,
``--window W`` (heatmap window), ``--check`` (re-read and validate
every artifact; exit non-zero on any violation).

``faults`` runs a small fault-injection campaign on a 2x2 mesh
(baseline, burst, stuck-at, dead link with recovery armed -- see
docs/RESILIENCE.md) and prints the campaign table.  ``--smoke`` runs
the tiny deterministic resilience check instead: a faulted campaign
that must complete AND a dead-link scenario with no recovery armed that
the progress watchdog must catch; exits non-zero if either expectation
fails (wired into ``make faults-smoke`` / ``make bench-smoke``).
``--jobs``/``--cache``/``--checkpoint-every``/``--checkpoint-dir``/
``--resume`` apply like they do for ``figures``.

``top`` tails the run directory's ``events.jsonl`` stream (fallback:
the ``runs.jsonl`` journal) and repaints a per-point dashboard every
``--interval`` seconds until the run finishes; ``--once`` renders a
single frame and exits, ``--prom FILE`` also writes a Prometheus text
exposition.  ``bench-diff`` extracts the tracked perf ratios from
``--results`` (default ``benchmarks/results``) and compares them to
the committed ``BENCH_TRAJECTORY.json``; it exits 1 when any tracked
metric dropped more than ``--threshold`` (default 20%%), and
``--update`` appends the current values as a new trajectory entry.
Both are documented in docs/OBSERVABILITY.md.

``serve`` starts the design-space query service (docs/SERVICE.md): an
asyncio HTTP front end over the content-addressed result store in
``--store DIR``.  ``POST /query`` answers queries like "cheapest 5x5
config >= 800 MHz under this traffic" -- inline from the store when
every point is already known, admission-controlled into the
work-stealing farm when not (``--serve-workers N`` worker processes,
at most ``--max-inflight`` evaluations at once).  ``GET /healthz`` and
the Prometheus ``GET /metrics`` make it a well-behaved fleet citizen;
``GET /jobs/<id>/events`` streams a background query's telemetry
events.  ``--port 0`` picks a free port (printed on startup).
"""

from __future__ import annotations

import argparse
import sys


def _info() -> int:
    import repro

    print(f"repro {repro.__version__} -- xpipes Lite (DATE 2005) reproduction")
    print(__doc__)
    rows = [
        ("repro.sim", "cycle-accurate kernel, stats, tracing, VCD"),
        ("repro.core", "flits, OCP, packetization, NIs, switch, links, CRC"),
        ("repro.network", "topologies, NoC builder, traffic, monitors, deadlock"),
        ("repro.telemetry", "metrics registry, lifecycle tracing, heatmaps"),
        ("repro.bus", "AHB-like shared bus + bridged hierarchy baseline"),
        ("repro.synth", "area/power/timing/energy models @130nm anchors"),
        ("repro.flow", "task graphs, mapping, floorplan, bandwidth, selection"),
        ("repro.compiler", "NoC spec -> routing tables + sim + SystemC views"),
        ("repro.store", "content-addressed, sha256-verified result store"),
        ("repro.serve", "work-stealing farm + HTTP design-space queries"),
    ]
    for mod, desc in rows:
        print(f"  {mod:<16} {desc}")
    print("\nsee README.md, DESIGN.md, EXPERIMENTS.md, docs/")
    return 0


def _demo() -> int:
    from repro.network import Noc, UniformRandomTraffic, mesh
    from repro.network.topology import attach_round_robin
    from repro.synth import measure_noc_energy, synthesize_noc

    topo = mesh(2, 2)
    cpus, mems = attach_round_robin(topo, 2, 2)
    noc = Noc(topo)
    noc.populate(
        {c: UniformRandomTraffic(mems, 0.1, seed=i) for i, c in enumerate(cpus)},
        max_transactions=100,
    )
    cycles = noc.run_until_drained(max_cycles=1_000_000)
    lat = noc.aggregate_latency()
    print(f"2x2 mesh, 2 CPUs + 2 memories, 200 transactions in {cycles} cycles")
    print(f"  transaction latency: mean {lat.mean():.1f}, "
          f"p95 {lat.percentile(95):.0f} cycles")
    print(f"  network latency    : mean {noc.network_latency().mean():.1f} cycles")
    report = synthesize_noc(topo, target_freq_mhz=1000)
    print(f"  synthesis estimate : {report.total_area_mm2:.3f} mm2, "
          f"{report.total_power_mw:.0f} mW @1 GHz")
    energy = measure_noc_energy(noc)
    print(f"  energy             : {energy.pj_per_transaction:.0f} pJ/transaction")
    return 0


def _mesh_case_study() -> int:
    import runpy

    runpy.run_path("examples/mesh_case_study.py", run_name="__main__")
    return 0


def _figures(
    jobs: int = 1,
    cache: "str | None" = None,
    checkpoint_every: "int | None" = None,
    checkpoint_dir: "str | None" = None,
    resume: bool = False,
    replicas: "int | None" = None,
) -> int:
    import os

    import pytest

    # The benchmarks run under pytest, so the runner configuration
    # travels via the environment (ExperimentRunner.from_env,
    # checkpoint_options_from_env and replicas_from_env read it).
    if jobs > 1:
        os.environ["REPRO_JOBS"] = str(jobs)
    if cache:
        os.environ["REPRO_CACHE"] = cache
    if checkpoint_every is not None:
        os.environ["REPRO_CHECKPOINT_EVERY"] = str(checkpoint_every)
    if checkpoint_dir:
        os.environ["REPRO_CHECKPOINT_DIR"] = checkpoint_dir
    if resume:
        os.environ["REPRO_RESUME"] = "1"
    if replicas is not None:
        os.environ["REPRO_REPLICAS"] = str(replicas)
    # "slow" marks the dense resilience sweeps; the committed figures
    # come from the regular-size runs.
    return pytest.main(["benchmarks/", "--benchmark-only", "-q", "-m", "not slow"])


def _check_report(paths) -> "list[str]":
    """Re-read every report artifact and list schema violations."""
    import json

    from repro.telemetry import TelemetryError, validate_metrics

    problems = []
    try:
        validate_metrics(json.loads(paths["metrics"].read_text()))
    except (TelemetryError, ValueError) as exc:
        problems.append(f"metrics.json: {exc}")
    try:
        trace = json.loads(paths["trace"].read_text())
        events = trace["traceEvents"]
        complete = [
            e
            for e in events
            if e.get("cat") == "packet"
            and e.get("ph") == "X"
            and "src" in e.get("args", {})
            and "ejected_by" in e.get("args", {})
        ]
        if not complete:
            problems.append(
                "trace.json: no packet with both injection and ejection spans"
            )
        if not any(e.get("cat") == "hop" for e in events):
            problems.append("trace.json: no per-hop arbitration spans")
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"trace.json: not a trace-event document ({exc})")
    try:
        lines = paths["heatmap_csv"].read_text().strip().splitlines()
        cols = len(lines[0].split(","))
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) != cols:
                raise ValueError(f"ragged row {cells[0]!r}")
            for cell in cells[1:]:
                float(cell)
    except (ValueError, IndexError) as exc:
        problems.append(f"heatmap.csv: {exc}")
    return problems


def _report(
    out: str,
    mesh_spec: str = "2x2",
    cycles: int = 2000,
    rate: float = 0.1,
    window: int = 100,
    check: bool = False,
) -> int:
    from repro.network import Noc, UniformRandomTraffic, mesh
    from repro.network.topology import attach_round_robin
    from repro.telemetry import NocTelemetry

    try:
        w, h = (int(x) for x in mesh_spec.lower().split("x"))
    except ValueError:
        print(f"--mesh must look like 2x2, got {mesh_spec!r}", file=sys.stderr)
        return 2
    topo = mesh(w, h)
    n = w * h
    cpus, mems = attach_round_robin(topo, max(1, n // 2), max(1, n - n // 2))
    noc = Noc(topo)
    telemetry = NocTelemetry(noc, window=window)
    noc.populate(
        {c: UniformRandomTraffic(mems, rate, seed=i) for i, c in enumerate(cpus)}
    )
    noc.run(cycles)
    paths = telemetry.write(out)
    events = len(telemetry.collector.events)
    print(
        f"{w}x{h} mesh, {len(cpus)} CPUs + {len(mems)} memories, "
        f"{cycles} cycles at rate {rate}: {noc.total_completed()} transactions, "
        f"{events} lifecycle events"
    )
    for kind, path in paths.items():
        print(f"  {kind:<12} {path}")
    if check:
        problems = _check_report(paths)
        if problems:
            for p in problems:
                print(f"CHECK FAILED: {p}", file=sys.stderr)
            return 1
        print("  check        all artifacts valid")
    return 0


def _faults(
    smoke: bool = False,
    jobs: int = 1,
    cache: "str | None" = None,
    checkpoint_every: "int | None" = None,
    checkpoint_dir: "str | None" = None,
    resume: bool = False,
    replicas: "int | None" = None,
) -> int:
    from repro.faults import CampaignSpec, FaultCampaign, FaultWindow, render_campaign
    from repro.flow.runner import ExperimentRunner
    from repro.network.experiments import TopologyNocBuilder
    from repro.network.noc import NocBuildConfig
    from repro.network.topology import mesh
    from repro.store import ResultStore

    if checkpoint_every is not None and not checkpoint_dir:
        checkpoint_dir = cache or ".repro-checkpoints"
    ckpt = {
        "checkpoint_every": checkpoint_every,
        "checkpoint_dir": checkpoint_dir,
        "resume": resume,
        "replicas": replicas,
    }

    plain = TopologyNocBuilder(mesh, (2, 2), n_initiators=2, n_targets=2)
    # Same fabric with the recovery machinery armed: NI transaction
    # timeouts with one retry, plus the go-back-N sender resync timer.
    hardened = TopologyNocBuilder(
        mesh, (2, 2), n_initiators=2, n_targets=2,
        config=NocBuildConfig(
            ni_txn_timeout=300, ni_txn_retries=1, link_resync_timeout=40
        ),
    )
    east = "link.sw_0_0.p*"  # everything leaving the corner switch

    if smoke:
        # Expectation 1: a faulted campaign still completes traffic.
        healthy = CampaignSpec(
            builder=hardened,
            windows=(
                FaultWindow(east, start=100, duration=200, error_rate=0.3),
                FaultWindow(east, start=400, duration=150, mode="dead"),
            ),
            rate=0.05, warmup_cycles=100, measure_cycles=1200,
            watchdog_horizon=2000, label="smoke-recovers",
        )
        # Expectation 2: a dead link with NO recovery armed must be
        # caught by the watchdog, not hang the simulation.
        wedged = CampaignSpec(
            builder=plain,
            windows=(FaultWindow(east, start=100, duration=10_000, mode="dead"),),
            rate=0.05, warmup_cycles=100, measure_cycles=5000,
            watchdog_horizon=600, label="smoke-wedged",
        )
        results = FaultCampaign([healthy, wedged], **ckpt).run()
        print(render_campaign(results))
        ok = True
        if results[0].no_progress or results[0].completed <= 0:
            print("SMOKE FAILED: recovery campaign did not complete", file=sys.stderr)
            ok = False
        if results[0].errors_injected <= 0 and results[0].flits_dropped <= 0:
            print("SMOKE FAILED: no faults actually landed", file=sys.stderr)
            ok = False
        if not results[1].no_progress:
            print(
                "SMOKE FAILED: watchdog did not catch the dead link",
                file=sys.stderr,
            )
            ok = False
        else:
            print(f"\nwatchdog diagnosis:\n{results[1].diagnosis}")
        return 0 if ok else 1

    runner = (
        ExperimentRunner(jobs=jobs, store=ResultStore(cache) if cache else None)
        if jobs > 1 or cache
        else None
    )
    specs = [
        CampaignSpec(builder=plain, rate=0.05, label="baseline"),
        CampaignSpec(
            builder=plain,
            windows=(FaultWindow(east, start=400, duration=800, error_rate=0.3),),
            rate=0.05, label="burst 0.3",
        ),
        CampaignSpec(
            builder=plain,
            windows=(FaultWindow(east, start=400, duration=300, mode="stuck"),),
            rate=0.05, label="stuck 300cyc",
        ),
        CampaignSpec(
            builder=hardened,
            windows=(FaultWindow(east, start=400, duration=400, mode="dead"),),
            rate=0.05, label="dead 400cyc +recovery",
        ),
    ]
    results = FaultCampaign(specs, runner=runner, **ckpt).run()
    print(render_campaign(results))
    if runner is not None and runner.failures:
        print(runner.render_report("faults runner"), file=sys.stderr)
        return 1
    return 0


def _top(
    run_dir: str,
    once: bool = False,
    interval: float = 1.0,
    prom: "str | None" = None,
) -> int:
    from repro.telemetry.top import top_main

    return top_main(run_dir, once=once, interval=interval, prom=prom)


def _bench_diff(
    results: str,
    trajectory: str,
    threshold: float,
    update: bool = False,
    note: str = "",
) -> int:
    from repro.telemetry.regress import bench_diff

    return bench_diff(
        results, trajectory, threshold=threshold, update=update, note=note
    )


def _serve(
    store_dir: str,
    host: str = "127.0.0.1",
    port: int = 8787,
    workers: int = 2,
    max_inflight: int = 2,
    request_timeout: float = 120.0,
) -> int:
    from repro.serve.http import QueryServer, run_server
    from repro.serve.service import QueryEngine
    from repro.store import ResultStore
    from repro.telemetry.registry import MetricsRegistry

    metrics = MetricsRegistry()
    store = ResultStore(store_dir, metrics=metrics)
    engine = QueryEngine(store, workers=workers, metrics=metrics)
    server = QueryServer(
        engine, host=host, port=port, max_inflight=max_inflight,
        request_timeout=request_timeout or None,
    )
    run_server(server)
    return 0


def _chaos(
    out: "str | None",
    seed: int = 7,
    points: int = 12,
    workers: int = 3,
    keep: bool = False,
) -> int:
    from repro.chaos import chaos_main

    return chaos_main(out, seed=seed, points=points, workers=workers, keep=keep)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command",
        choices=[
            "info",
            "demo",
            "mesh-case-study",
            "figures",
            "report",
            "faults",
            "top",
            "bench-diff",
            "serve",
            "chaos",
        ],
        nargs="?",
        default="info",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="figures: fan sweep points over N worker processes "
        "(default: 1, sequential)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="figures: memoize sweep results in a result store at DIR, "
        "keyed by config hash (default: no cache)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="figures/faults: write a deterministic simulator checkpoint "
        "every N cycles of each campaign (default: off; see "
        "docs/CHECKPOINT.md)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="figures/faults: directory for mid-campaign checkpoints "
        "(default: the --cache dir, else .repro-checkpoints)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="figures/faults: pick up where a killed run stopped -- serve "
        "journaled results from the cache and restore mid-campaign "
        "checkpoints instead of recomputing",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="N",
        help="figures/faults: measure every point under N seed-varied "
        "replica lanes and report mean +- 95%% CI (default: single "
        "seed; see docs/BATCHING.md)",
    )
    parser.add_argument(
        "--out",
        default="telemetry-report",
        metavar="DIR",
        help="report: output directory for metrics.json / trace.json / "
        "heatmap.{txt,csv} (default: telemetry-report)",
    )
    parser.add_argument(
        "--mesh",
        default="2x2",
        metavar="WxH",
        help="report: mesh dimensions (default: 2x2)",
    )
    parser.add_argument(
        "--cycles",
        type=int,
        default=2000,
        metavar="N",
        help="report: cycles to simulate (default: 2000)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=0.1,
        metavar="R",
        help="report: injection attempts per master per cycle (default: 0.1)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=100,
        metavar="W",
        help="report: heatmap window width in cycles (default: 100)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="report: re-read and validate every artifact, exit non-zero "
        "on violations",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="faults: run the tiny deterministic resilience check "
        "(one recovering campaign + one watchdog catch), exit non-zero "
        "if either expectation fails",
    )
    parser.add_argument(
        "--dir",
        dest="run_dir",
        default=".repro-cache",
        metavar="DIR",
        help="top: run directory holding events.jsonl / runs.jsonl "
        "(default: .repro-cache)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="top: render a single frame and exit instead of looping",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="S",
        help="top: seconds between dashboard repaints (default: 1.0)",
    )
    parser.add_argument(
        "--prom",
        default=None,
        metavar="FILE",
        help="top: also write a Prometheus text exposition of the "
        "summary to FILE each frame",
    )
    parser.add_argument(
        "--results",
        default="benchmarks/results",
        metavar="DIR",
        help="bench-diff: directory of BENCH_*.json artifacts "
        "(default: benchmarks/results)",
    )
    parser.add_argument(
        "--trajectory",
        default="BENCH_TRAJECTORY.json",
        metavar="FILE",
        help="bench-diff: the committed trajectory file to diff against "
        "(default: BENCH_TRAJECTORY.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        metavar="T",
        help="bench-diff: relative drop that fails the diff "
        "(default: 0.20 = 20%%)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="bench-diff: append the current values as a new trajectory "
        "entry when the diff passes",
    )
    parser.add_argument(
        "--note",
        default="",
        metavar="TEXT",
        help="bench-diff: annotation stored with an --update entry",
    )
    parser.add_argument(
        "--store",
        default=".repro-store",
        metavar="DIR",
        help="serve: root of the content-addressed result store "
        "(default: .repro-store; created on first use, shareable "
        "across hosts -- see docs/SERVICE.md)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="ADDR",
        help="serve: address to bind (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8787,
        metavar="N",
        help="serve: port to bind; 0 picks a free port, printed on "
        "startup (default: 8787)",
    )
    parser.add_argument(
        "--serve-workers",
        type=int,
        default=2,
        metavar="N",
        help="serve: work-stealing worker processes per farm evaluation "
        "(default: 2)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=2,
        metavar="N",
        help="serve: admission control -- at most N farm evaluations in "
        "flight before POST /query answers 429 (default: 2)",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=120.0,
        metavar="S",
        help="serve: per-request deadline in seconds; timed-out requests "
        "answer 504 with the standard error schema (default: 120; "
        "0 disables)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=7,
        metavar="N",
        help="chaos: fault-plan seed -- the same seed always injects the "
        "same kills/stalls/corruptions (default: 7)",
    )
    parser.add_argument(
        "--points",
        type=int,
        default=12,
        metavar="N",
        help="chaos: sweep points per drill run (default: 12)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=3,
        metavar="N",
        help="chaos: dispatcher worker processes (default: 3)",
    )
    parser.add_argument(
        "--chaos-dir",
        default=None,
        metavar="DIR",
        help="chaos: scratch directory for the drill stores "
        "(default: a fresh temp dir, removed afterwards)",
    )
    parser.add_argument(
        "--keep",
        action="store_true",
        help="chaos: keep the scratch directory for post-mortem",
    )
    args = parser.parse_args(argv)
    if args.command == "serve":
        if args.serve_workers < 1:
            parser.error(
                f"--serve-workers must be >= 1 worker process, "
                f"got {args.serve_workers}"
            )
        return _serve(
            store_dir=args.store,
            host=args.host,
            port=args.port,
            workers=args.serve_workers,
            max_inflight=args.max_inflight,
            request_timeout=args.request_timeout,
        )
    if args.command == "chaos":
        return _chaos(
            args.chaos_dir,
            seed=args.seed,
            points=args.points,
            workers=args.workers,
            keep=args.keep,
        )
    if args.command == "figures":
        return _figures(
            jobs=args.jobs,
            cache=args.cache,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            replicas=args.replicas,
        )
    if args.command == "faults":
        return _faults(
            smoke=args.smoke,
            jobs=args.jobs,
            cache=args.cache,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            replicas=args.replicas,
        )
    if args.command == "top":
        return _top(
            args.run_dir,
            once=args.once,
            interval=args.interval,
            prom=args.prom,
        )
    if args.command == "bench-diff":
        return _bench_diff(
            results=args.results,
            trajectory=args.trajectory,
            threshold=args.threshold,
            update=args.update,
            note=args.note,
        )
    if args.command == "report":
        return _report(
            out=args.out,
            mesh_spec=args.mesh,
            cycles=args.cycles,
            rate=args.rate,
            window=args.window,
            check=args.check,
        )
    return {
        "info": _info,
        "demo": _demo,
        "mesh-case-study": _mesh_case_study,
    }[args.command]()


if __name__ == "__main__":
    sys.exit(main())
