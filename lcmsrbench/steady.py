#!/usr/bin/env python3
"""Repeats the benchmark over seeds and reports how steady each metric is.

Run from the repository root:

  python3 lcmsrbench/steady.py run --workload explore --seeds 101-110 --out .bench_build/explore.json
  python3 lcmsrbench/steady.py report .bench_build/explore.json ... > lcmsrbench/STEADINESS.md
  python3 lcmsrbench/steady.py compare --first a.json ... --second b.json ...

`run` invokes `bash lcmsrbench/run.sh` once per seed and stores, per run,
the JSON result line, the answer digest and the store size. `report`
prints, per workload and end-to-end metric, the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median
against the metric's bound in BENCHMARK.json; it also checks that
answer digests and the traced run's counts repeat for a repeated seed.
`compare` sets the medians of two sets of runs side by side.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run(args):
    bench = json.load(open("BENCHMARK.json"))
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(args.seconds or bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        digest = re.search(r"answer digest: (\w+)", out.stdout)
        store = re.search(r"store_mb: ([\d.]+)", out.stdout)
        fails = [l for l in out.stderr.splitlines() if l.startswith("FAIL:")]
        runs.append({"workload": args.workload, "seed": seed, "trace": args.trace, "result": result,
                     "failures": fails, "log": lines[:-1],
                     "digest": digest.group(1) if digest else None,
                     "store_mb": float(store.group(1)) if store else None})
        m = result["metrics"]
        print(f"{args.workload} seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(m.items()) if "." not in k),
              file=sys.stderr)
        for line in fails:
            print("  " + line, file=sys.stderr)
    if args.append:
        try:
            runs = json.load(open(args.out)) + runs
        except FileNotFoundError:
            pass
    with open(args.out, "w") as f:
        json.dump(runs, f, indent=1)


# Counts of the traced serial pass that must repeat exactly for one seed.
EXACT = ["grid.cells_scanned", "grid.cells_skipped", "grid.postings",
         "grid.score_hit_ratio", "grid.tombstones", "plan.pick.app", "plan.pick.tgen",
         "plan.pick.greedy", "roadnet.nodes.p50"]
NEAR = ["store_mb", "btree.page_misses_per_read", "btree.page_hit_ratio"]


def report(args):
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for path in args.files:
        runs.extend(json.load(open(path)))
    by_workload = {}
    for r in runs:
        by_workload.setdefault(r["workload"], []).append(r)
    for workload, rs in sorted(by_workload.items()):
        plain = [r for r in rs if not r["trace"]]
        first = {}
        steady = []
        for r in plain:
            if r["seed"] in first:
                continue
            first[r["seed"]] = r
            steady.append(r)
        steady = steady[:args.runs]
        seeds = ", ".join(str(r["seed"]) for r in steady)
        failed = sum(r["result"]["failed"] for r in steady)
        attempted = sum(r["result"]["attempted"] for r in steady)
        print(f"### {workload}\n")
        print(f"{len(steady)} runs of `--trace 0`, seeds {seeds}: {failed} of {attempted} operations failed.\n")
        print("| metric | median | Q1 | Q3 | (Q3-Q1)/median | bound | below bound/3 |")
        print("|---|---|---|---|---|---|---|")
        for name in bounds:
            vals = [r["result"]["metrics"][name]["value"] for r in steady]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            ok = "yes" if spread < bounds[name] / 3 else "no"
            if name == "setup_s":
                ok += " (spread not gated)"
            print(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | {bounds[name]} | {ok} |")
        print()
        for r in steady:
            for f in r.get("failures", []):
                print(f"- seed {r['seed']}: {f}")
        extra = [r for r in plain if r not in steady]
        for r in extra:
            again = first[r["seed"]]
            if again is r:
                m = r["result"]["metrics"]
                print(f"- seed {r['seed']}, not used during development: "
                      + ", ".join(f"{k} {v['value']:.6g}" for k, v in sorted(m.items()))
                      + f"; correct {r['result']['correct']}, {r['result']['failed']} failed")
                continue
            same = "repeats" if r["digest"] == again["digest"] else "DIFFERS"
            sr = r["result"]["metrics"]["score_ratio"]["value"] == again["result"]["metrics"]["score_ratio"]["value"]
            print(f"- seed {r['seed']} again: answer digest {r['digest']} {same}; score_ratio "
                  + ("repeats" if sr else "DIFFERS") + f"; store_mb {again['store_mb']} then {r['store_mb']}")
            m = r["result"]["metrics"]
            print(f"  (qps {m['qps']['value']:.6g}, read_p50_ms {m['read_p50_ms']['value']:.6g}, "
                  f"read_p99_ms {m['read_p99_ms']['value']:.6g}, correct {r['result']['correct']})")
        traced = {}
        for r in rs:
            if r["trace"]:
                traced.setdefault(r["seed"], []).append(r)
        for seed, ts in sorted(traced.items()):
            print(f"\nTraced run, seed {seed} ({len(ts)} runs):\n")
            print("```")
            for line in ts[0]["log"]:
                print(line)
            print("```")
            m = [t["result"]["metrics"] for t in ts]
            print(f"\n- trace.overhead: " + ", ".join(f"{x['trace.overhead']['value']:.4f}" for x in m))
            if len(ts) > 1:
                for name in EXACT + NEAR:
                    vals = [x[name]["value"] for x in m if name in x]
                    tag = "repeats exactly" if len(set(vals)) == 1 else "differs"
                    print(f"- {name}: " + ", ".join(f"{v:.6g}" for v in vals) + f" ({tag})")
            print("\nPer-layer metrics of the first run:\n")
            print(", ".join(f"`{k}` {v['value']:.6g} {v['unit']}" for k, v in sorted(m[0].items())))
        print()


def medians(path, runs):
    by = {}
    for r in json.load(open(path)):
        if r["trace"]:
            continue
        w = by.setdefault(r["workload"], {})
        w.setdefault(r["seed"], r)
    out = {}
    for workload, seeds in by.items():
        rs = list(seeds.values())[:runs]
        out[workload] = {name: statistics.median(r["result"]["metrics"][name]["value"] for r in rs)
                         for name in rs[0]["result"]["metrics"]}
    return out


def compare(args):
    bench = json.load(open("BENCHMARK.json"))
    print("| workload | metric | first median | second median | worse by | bound |")
    print("|---|---|---|---|---|---|")
    for a, b in zip(args.first, args.second):
        ma, mb = medians(a, args.runs), medians(b, args.runs)
        for workload in sorted(ma):
            for m in bench["end_to_end"]:
                x, y = ma[workload][m["name"]], mb[workload][m["name"]]
                worse = (y - x) / x if m["better"] == "lower" else (x - y) / x
                print(f"| {workload} | {m['name']} | {x:.6g} | {y:.6g} | {worse:+.4f} | {m['bound']} |")


def main():
    p = argparse.ArgumentParser()
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True)
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out", required=True)
    r.add_argument("--append", action="store_true", help="add to the runs already in --out")
    rep = sub.add_parser("report")
    rep.add_argument("--runs", type=int, default=10, help="seeds per workload in the spread table")
    rep.add_argument("files", nargs="+")
    cmp_ = sub.add_parser("compare", help="second set's median against the first's, per metric")
    cmp_.add_argument("--runs", type=int, default=10)
    cmp_.add_argument("--first", nargs="+", required=True)
    cmp_.add_argument("--second", nargs="+", required=True)
    args = p.parse_args()
    {"run": run, "report": report, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    main()
