#!/usr/bin/env python3
"""Checks of the benchmark itself. Run from the repository root.

    python3 perfbench/check.py selfcheck [--seconds S]
        Every workload, traced and untraced, prints exactly the metrics
        BENCHMARK.json declares, with their units, and reports no failed
        op. Every end-to-end metric, and every per-layer metric of a
        layer the workload reaches, summarizes at least one sample, and
        no end-to-end metric reads 0. A corrupted served table
        (serve-wl) and a corrupted colouring (ingest-stream) are each
        counted as failed.

    python3 perfbench/check.py spread [--workloads a,b] [--seeds N]
                                      [--first-seed K] [--seconds S] [--out F]
        Runs each workload once per seed, the workloads interleaved seed
        by seed so that a change in the machine's speed reaches all of
        them alike, and prints, per end-to-end metric, the median and
        the interquartile range as a share of the median, against the
        metric's bound. Exits 1 if any spread is over its bound.
        `--out` saves the values so two sets can be compared with
        `compare A B`.

    python3 perfbench/check.py compare A B
        For every workload and metric of two saved sets, how far B's
        median is from A's, in the worse direction, against the bound.
        Exits 1 if any is over.
"""

import argparse
import json
import statistics
import subprocess
import sys

BENCH = json.load(open("BENCHMARK.json"))

# Prefixes of the per-layer metrics of the layers each workload reaches
# (`reached_layers` in perfbench/src/main.rs).
REACHED = {
    "serve-wl": ("serve.", "core.", "trace.", "ops."),
    "serve-joins": ("serve.", "core.", "trace.", "ops."),
    "ingest-stream": ("store.", "wl.", "trace.", "ops."),
    "suite": ("gnn.", "tensor.", "train.", "experiments.", "trace.", "ops."),
}


def run(workload, seed, seconds, trace, extra=()):
    """The JSON result of one run, and the sample count of each metric
    from the table printed above it."""
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)), *extra,
    ]
    lines = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.strip().splitlines()
    result = json.loads(lines[-1])
    samples = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4 and fields[0] in result["metrics"]:
            samples[fields[0]] = int(fields[3])
    return result, samples


def selfcheck(args):
    problems = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in BENCH[key]}
        for w in BENCH["workloads"]:
            name = w["name"]
            try:
                r, samples = run(name, 1, args.seconds, trace)
            except subprocess.CalledProcessError as e:
                problems.append(f"{name} trace={int(trace)}: exit {e.returncode}: {e.stderr.strip()}")
                continue
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                problems.append(f"{name} trace={int(trace)}: missing {missing}, extra {extra}")
            own = [k for k in got if not trace or k.startswith(REACHED[name])]
            empty = sorted(k for k in own if samples.get(k, 0) == 0)
            if empty:
                problems.append(f"{name} trace={int(trace)}: no samples behind {empty}")
            if not trace:
                zero = sorted(k for k in own if not r["metrics"][k]["value"])
                if zero:
                    problems.append(f"{name}: end-to-end metrics read 0: {zero}")
            if not r["correct"] or r["failed"] != 0:
                problems.append(f"{name} trace={int(trace)}: correct={r['correct']} failed={r['failed']}")
            print(f"{name:<14} trace={int(trace)} metrics={len(got)} reached={len(own)} "
                  f"attempted={r['attempted']} failed={r['failed']}", flush=True)
    for workload in ("serve-wl", "ingest-stream"):
        r, _ = run(workload, 1, args.seconds, False, ["--inject-fault"])
        print(f"{workload:<14} --inject-fault attempted={r['attempted']} failed={r['failed']} "
              f"correct={r['correct']}")
        if r["failed"] == 0 or r["correct"]:
            problems.append(f"{workload}: an injected fault was not counted as failed")
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


def spread(args):
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in BENCH["workloads"]]
    seconds = args.seconds or BENCH["run_seconds"]
    values = {w: {m["name"]: [] for m in BENCH["end_to_end"]} for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in workloads:
            r, _ = run(w, seed, seconds, False)
            if not r["correct"]:
                print(f"{w} seed {seed}: incorrect run (failed {r['failed']})")
            for name in values[w]:
                values[w][name].append(r["metrics"][name]["value"])
            print(f"{w:<14} seed {seed:<4} " + "  ".join(
                f"{k} {v[-1]:.6g}" for k, v in values[w].items()), flush=True)
    saved = {}
    worst, over = 0.0, 0
    for w in workloads:
        saved[w] = {}
        for m in BENCH["end_to_end"]:
            v = values[w][m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            rel = (q3 - q1) / med
            saved[w][m["name"]] = {"median": med, "values": v}
            flag = "  OVER" if rel > m["bound"] else ("  >1/3" if rel > m["bound"] / 3 else "")
            over += rel > m["bound"]
            worst = max(worst, rel / m["bound"])
            print(f"{w:<14} {m['name']:<16} median {med:14.6f}  iqr/median {rel:7.4f}  "
                  f"bound {m['bound']:.2f}{flag}")
    if args.out:
        json.dump(saved, open(args.out, "w"), indent=1)
    print(f"largest spread as a share of its bound: {worst:.3f}")
    return 1 if over else 0


def compare(args):
    a, b = json.load(open(args.a)), json.load(open(args.b))
    bad = 0
    for w in a:
        for m in BENCH["end_to_end"]:
            ma, mb = a[w][m["name"]]["median"], b[w][m["name"]]["median"]
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = "  OVER" if worse > m["bound"] else ""
            bad += bool(flag)
            print(f"{w:<14} {m['name']:<16} {ma:14.6f} -> {mb:14.6f}  worse by {worse:+.4f}  "
                  f"bound {m['bound']:.2f}{flag}")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser()
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("selfcheck")
    s.add_argument("--seconds", type=float, default=2)
    s = sub.add_parser("spread")
    s.add_argument("--workloads")
    s.add_argument("--seeds", type=int, default=10)
    s.add_argument("--first-seed", type=int, default=1)
    s.add_argument("--seconds", type=float)
    s.add_argument("--out")
    s = sub.add_parser("compare")
    s.add_argument("a")
    s.add_argument("b")
    args = p.parse_args()
    return {"selfcheck": selfcheck, "spread": spread, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
