"""Steadiness report for the benchmark's end-to-end metrics.

    python3 perfbench/steady.py --runs 10 [--workloads mc_sparse,dse_query]
        [--first-seed 1] [--seconds S] [--save FILE] [--compare FILE]

Runs ``run.py`` ``--runs`` times per workload, each with another seed,
and prints for every end-to-end metric its median, quartiles
(``statistics.quantiles(n=4)``), the quartile spread and the min-max
spread as shares of the median, against the metric's ``bound`` in
``BENCHMARK.json``.  ``--compare`` checks the medians against an
earlier ``--save`` file: a later median may not be worse than the
earlier one by more than the bound.

Exit status 1 when a quartile spread exceeds its bound, when a compared
median regressed past its bound, or when a run failed or reported wrong
outputs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med,
            "range_share": (max(values) - min(values)) / med}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--save", default=None, help="write raw values and medians here")
    p.add_argument("--compare", default=None, help="an earlier --save file")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    raw = {}
    bad = False
    for w in workloads:
        raw[w] = {name: [] for name in metrics}
        for k in range(args.runs):
            seed = args.first_seed + k
            t0 = time.monotonic()
            result = run_once(spec, w, seed, seconds)
            wall = time.monotonic() - t0
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: {result['failed']}/{result['attempted']} "
                      f"ops failed", file=sys.stderr)
                bad = True
            for name in metrics:
                raw[w][name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed} ({wall:.0f} s): " + ", ".join(
                f"{n}={result['metrics'][n]['value']:.4g}" for n in metrics),
                file=sys.stderr, flush=True)

    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)["summary"]
    summary = {}
    print(f"{'workload':<10} {'metric':<17} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}  verdict")
    for w in workloads:
        summary[w] = {}
        for name, m in metrics.items():
            s = summary[w][name] = summarize(raw[w][name])
            verdict = []
            if s["iqr_share"] > m["bound"]:
                verdict.append("SPREAD OVER BOUND")
                bad = True
            elif s["iqr_share"] > m["bound"] / 3:
                verdict.append("spread over bound/3")
            if earlier is not None and w in earlier:
                before = earlier[w][name]["median"]
                change = (s["median"] - before) / before
                worse = change if m["better"] == "lower" else -change
                verdict.append(f"median {100 * change:+.1f}% vs earlier")
                if worse > m["bound"]:
                    verdict.append("REGRESSED PAST BOUND")
                    bad = True
            print(f"{w:<10} {name:<17} {s['median']:>11.4f} {s['q1']:>11.4f} "
                  f"{s['q3']:>11.4f} {s['iqr_share']:>8.3f} {s['range_share']:>9.3f} "
                  f"{m['bound']:>6.2f}  {'; '.join(verdict) or 'ok'}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump({"raw": raw, "summary": summary}, fh, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
