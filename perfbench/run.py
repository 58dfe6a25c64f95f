"""The repo benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload mc_sparse --seed 0 --seconds 30 --trace 0

Run from the root of a checkout (``src/repro`` must sit next to
``perfbench/``).  Workloads: ``mc_sparse`` and ``dse_query``
(README.md says why each exists).  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a readable report.

``--trace 0`` measures the end-to-end metrics.  Their times are in
reference-host seconds: each measured time is divided by the host's
current slowdown, read from a fixed pure-Python reference loop that the
harness times between ops (README.md, "Host-speed reference").
``--trace 1`` is the separate traced run: it first runs the workload
untraced for a third of ``--seconds`` (the overhead baseline), then
traced for the rest, prints the per-layer metrics and writes a Chrome
trace-event file (``--trace-out``) that opens in ui.perfetto.dev.

``--write-golden`` recomputes the committed default-seed digests in
``golden.json`` (do this only when a change is *meant* to alter
simulated or answered values).
"""

import time

T0 = time.perf_counter()  # setup_s starts before repro is imported

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
DEFAULT_SEED = 0
SETUP_TRIALS = 5
#: First op of the traced run's untraced baseline: a range disjoint from
#: the traced ops, so no query repeats (a repeated miss would be a hit).
BASELINE_FIRST_OP = 10 ** 6
#: The host-speed reference: REFERENCE_ITERS turns of a fixed loop take
#: about REFERENCE_S seconds on the reference host (2-vCPU Linux VM).
REFERENCE_ITERS = 300_000
REFERENCE_S = 0.09
#: Timed op seconds between two reference samples.
REFERENCE_EVERY_S = 1.0
#: An op's slowdown is the mean of this many samples on either side.
REFERENCE_WINDOW = 2

#: End-to-end metrics, in report order, with units.
END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("mc_sparse", "dse_query"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a seconds-long version for the self-tests")
    p.add_argument("--golden", default=GOLDEN,
                   help="committed digests to check the default seed against")
    p.add_argument("--trace-out", default=None,
                   help="span file of a traced run (default: "
                   ".perfbench_out/<workload>-seed<seed>.trace.json)")
    p.add_argument("--write-golden", action="store_true")
    return p.parse_args(argv)


def reference_work(n=REFERENCE_ITERS):
    """Fixed interpreter-bound work: dict reads and writes, integer math."""
    table = {}
    acc = 0
    for i in range(n):
        k = i & 1023
        acc = (acc * 31 + table.get(k, i)) & 0xFFFFFFF
        table[k] = acc
    return acc


def sample_host():
    """One timing of the reference loop, in seconds."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def to_reference(seconds, samples):
    """A time measured amid ``samples`` of the reference loop, in
    reference-host seconds: divided by the host's slowdown, the mean
    sample over REFERENCE_S."""
    return seconds * REFERENCE_S * len(samples) / sum(samples)


def load_golden(path, size, workload, seed):
    """The committed digests for this run, or None (another seed)."""
    if seed != DEFAULT_SEED or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(size, {}).get(workload)


class Loop:
    """The closed loop: one op at a time, each checked when it returns.

    ``busy`` sums op wall times only; checking happens between ops and
    is not timed.  Neither is the reference loop, sampled into ``host``
    before the first op, after every ``REFERENCE_EVERY_S`` of op time
    and after the last op; a short sample is noisy, so an op is scaled
    by the ``REFERENCE_WINDOW`` samples on either side of it.  The loop
    stops once ``busy`` reaches ``seconds`` and at least ``min_ops`` ops
    ran.
    """

    def __init__(self, wl, first, seconds, min_ops, golden, tracer=None):
        from workloads import CheckFailed, digest

        self.latencies, self.digests, self.failures = [], [], []
        self.outcomes = []
        self.first = first
        self.busy = 0.0
        self.golden_checked = 0
        self.host = [sample_host()]
        self.sample_before = []  # per op: its last preceding sample
        sampled = 0.0
        i = first
        while len(self.latencies) < min_ops or self.busy < seconds:
            inp = wl.op_input(i)
            span = None
            if tracer is not None:
                tracer.op = i
                span = tracer.begin(wl.op_span)
            t0 = time.perf_counter()
            err = out = None
            try:
                out = wl.run_op(inp)
            except Exception as exc:  # noqa: BLE001 -- a failed op, counted
                err = exc
            dt = time.perf_counter() - t0
            outcome = "miss" if wl.is_miss(inp) else "hit"
            if span is not None:
                tracer.end(span, outcome=outcome)
                tracer.op = None
            self.busy += dt
            self.latencies.append(dt)
            self.sample_before.append(len(self.host) - 1)
            self.outcomes.append(outcome)
            try:
                if err is not None:
                    raise CheckFailed(f"{type(err).__name__}: {err}")
                d = wl.check(i, inp, out)
                g = wl.golden_index(i)
                if golden is not None and g is not None:
                    self.golden_checked += 1
                    if golden["digests"][g] != d:
                        raise CheckFailed(
                            f"digest {d} != committed {golden['digests'][g]}")
            except Exception as exc:  # noqa: BLE001 -- a wrong op, counted
                self.failures.append((i, f"{type(exc).__name__}: {exc}"))
                d = "failed"
            self.digests.append(d)
            i += 1
            if self.busy - sampled >= REFERENCE_EVERY_S:
                self.host.append(sample_host())
                sampled = self.busy
        if self.sample_before[-1] == len(self.host) - 1:
            self.host.append(sample_host())
        self.run_digest = digest(self.digests[: wl.prefix]) if first == 0 else None

    @property
    def n(self):
        return len(self.latencies)

    @property
    def throughput(self):
        return self.n / self.busy

    def reference_latencies(self):
        """Op times in reference-host seconds."""
        w = REFERENCE_WINDOW
        return [to_reference(dt, self.host[max(0, j + 1 - w): j + 1 + w])
                for dt, j in zip(self.latencies, self.sample_before)]

    def reference_throughput(self):
        return self.n / sum(self.reference_latencies())


def percentile_ms(latencies, q):
    """Interpolated q-th percentile (0-100) of latencies, in ms."""
    data = sorted(latencies)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return 1e3 * (data[lo] + (data[hi] - data[lo]) * (pos - lo))


def report_loop(wl, loop, golden):
    print(f"  ops {loop.n} ({sum(o == 'miss' for o in loop.outcomes)} misses), "
          f"failed {len(loop.failures)}, timed {loop.busy:.2f} s")
    for i, why in loop.failures[:5]:
        print(f"  FAILED op {i}: {why}")
    if golden is None:
        print(f"  no committed digests for seed {wl.seed}; compare run digests")
    else:
        print(f"  committed digests checked: {loop.golden_checked} ops")
    if loop.run_digest is not None:
        print(f"  run digest over ops [0, {wl.prefix}): {loop.run_digest}")


def untraced(wl, args, import_s, golden):
    trials, setup_host = [], []
    for k in range(SETUP_TRIALS):
        if k:
            wl.teardown()
        setup_host.append(sample_host())
        t0 = time.perf_counter()
        wl.setup()
        trials.append(time.perf_counter() - t0)
    setup_host.append(sample_host())
    loop = Loop(wl, 0, args.seconds, wl.min_ops, golden)
    raw = {
        "throughput_per_s": loop.throughput,
        "op_p50_ms": percentile_ms(loop.latencies, 50),
        "op_p99_ms": percentile_ms(loop.latencies, 99),
        "setup_s": import_s + statistics.median(trials),
    }
    ref = loop.reference_latencies()
    metrics = {
        "throughput_per_s": loop.reference_throughput(),
        "op_p50_ms": percentile_ms(ref, 50),
        "op_p99_ms": percentile_ms(ref, 99),
        "setup_s": to_reference(import_s, setup_host[:1])
        + statistics.median(to_reference(t, setup_host[k: k + 2])
                            for k, t in enumerate(trials)),
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    print(f"perfbench {wl.name} seed={wl.seed} size={wl.size} (untraced)")
    print(f"  setup: import {import_s:.3f} s + median of trials "
          + " / ".join(f"{t:.3f}" for t in trials) + " s")
    print(f"  host slowdown vs reference: {loop.busy / sum(ref):.3f} over the ops "
          f"({len(loop.host)} samples of {REFERENCE_S} s nominal)")
    report_loop(wl, loop, golden)
    print(f"  {'metric':<22} {'reference host':>14} {'as measured':>14}")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<22} {metrics[name]:>14.4f} "
              f"{raw.get(name, metrics[name]):>14.4f} {unit}")
    if wl.cycles_per_op is not None:
        print(f"  {'sim_cycles_per_s':<22} "
              f"{wl.cycles_per_op * metrics['throughput_per_s']:>14.1f} "
              f"{wl.cycles_per_op * loop.throughput:>14.1f} cycles/s")
    print(f"  {'error_rate':<22} {len(loop.failures) / loop.n:>14.4f} fraction")
    return loop, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def traced(wl, args, golden):
    from tracing import PER_LAYER_UNITS, Tracer, chrome_trace, layer_metrics, write_json

    wl.setup()
    base = Loop(wl, BASELINE_FIRST_OP, args.seconds / 3, 1, None)
    tracer = Tracer("h")
    wl.trace_start(tracer)
    try:
        loop = Loop(wl, 0, args.seconds - args.seconds / 3, wl.prefix, golden, tracer)
    finally:
        tracer.uninstall()
    spans = list(tracer.spans)
    extra = wl.trace_stop(spans)
    # Reference-host rates, so that host drift between the phases cancels.
    untraced_tp, traced_tp = base.reference_throughput(), loop.reference_throughput()
    extra["trace.untraced_throughput_per_s"] = untraced_tp
    extra["trace.traced_throughput_per_s"] = traced_tp
    extra["trace.overhead_share"] = 1 - traced_tp / untraced_tp
    op_wall = {loop.first + k: t for k, t in enumerate(loop.latencies)}
    metrics = layer_metrics(spans, op_wall, wl.prefix, extra, wl.seed_point_seconds)

    out = args.trace_out or os.path.join(
        ROOT, ".perfbench_out", f"{wl.name}-seed{wl.seed}.trace.json")
    write_json(out, chrome_trace(spans))
    print(f"perfbench {wl.name} seed={wl.seed} size={wl.size} (traced)")
    print(f"  untraced baseline: {base.n} ops, {untraced_tp:.4f} ops/s; "
          f"traced: {loop.n} ops, {traced_tp:.4f} ops/s (reference host); "
          f"overhead {100 * extra['trace.overhead_share']:.1f}%")
    report_loop(wl, loop, golden)
    if base.failures:
        loop.failures += base.failures
        print(f"  {len(base.failures)} baseline ops failed")
    print(f"  spans: {len(spans)} -> {out}")
    print(f"  exact counts over ops [0, {wl.prefix})")
    for name, unit in PER_LAYER_UNITS.items():
        print(f"  {name:<34} {metrics[name]:>16.4f} {unit}")
    return loop, base, {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def write_golden(wl, args):
    """Recompute this size's default-seed digests into ``--golden``."""
    wl.setup()
    n = wl.params.get("period") or wl.params["golden_ops"]
    loop = Loop(wl, 0, 0.0, n, None)
    if loop.failures:
        raise SystemExit(f"cannot write digests, ops failed: {loop.failures[:3]}")
    doc = {}
    if os.path.exists(args.golden):
        with open(args.golden, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc.setdefault(args.size, {})[wl.name] = {"seed": DEFAULT_SEED, "digests": loop.digests}
    with open(args.golden, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(loop.digests)} {args.size}/{wl.name} digests to {args.golden}")


def main(argv=None):
    args = parse_args(argv)
    # A terminated run still stops the server it started (finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from a repo checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import DseQuery, McSparse

    cls = {"mc_sparse": McSparse, "dse_query": DseQuery}[args.workload]
    for module in cls.imports:
        importlib.import_module(module)
    import_s = time.perf_counter() - T0

    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    if args.write_golden:
        args.seed = DEFAULT_SEED
    wl = cls(args.seed, args.size, work_dir)
    try:
        if args.write_golden:
            write_golden(wl, args)
            return 0
        golden = load_golden(args.golden, args.size, args.workload, args.seed)
        if args.trace:
            loop, base, metrics = traced(wl, args, golden)
            attempted = loop.n + base.n
        else:
            loop, metrics = untraced(wl, args, import_s, golden)
            attempted = loop.n
    finally:
        wl.teardown()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    failed = len(loop.failures)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
