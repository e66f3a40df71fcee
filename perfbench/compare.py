#!/usr/bin/env python3
"""Compare two sets of perfbench runs, or summarise one.

    python3 perfbench/compare.py PARENT_RUNS [CHANGE_RUNS]

Each argument is a directory of run records (run.py saves one per run under
<build dir>/runs/) or a single record file. Runs are grouped by workload and
by traced (--trace 1) or untraced.

With one set: per workload and metric, the median over runs, the quartiles
and the spread (q3 - q1) / median — the figure the benchmark's bounds are
checked against.

With two sets: per workload and end-to-end metric, both medians and
quartiles and the change against the metric's bound from BENCHMARK.json
(positive = worse). For every end-to-end metric that moved past its bound,
the per-layer metrics that layer_map.json maps to it and that moved by more
than the parent's own run-to-run spread are listed, naming the layer. The
record-only readings (absolute times, per-phase costs) follow, unbounded.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")]
             if os.path.isdir(path) else [path])
    groups = {}
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        run = rec["record"]["run"]
        key = (run["workload"], run["trace"])
        # The record holds the result's metrics plus the record-only readings.
        for name, m in rec["record"]["metrics"].items():
            groups.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return groups


def stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def summarise(groups):
    for (workload, trace), metrics in sorted(groups.items()):
        n = max(len(v) for v in metrics.values())
        print(f"\n== {workload} ({'traced' if trace else 'end-to-end'}, {n} runs)")
        print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name, values in metrics.items():
            med, q1, q3, spread = stats(values)
            print(f"{name:36} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.1%}")


def worse_by(better, parent, change):
    """Relative change of the median, positive when the change is worse."""
    if parent == 0:
        return 0.0
    d = (change - parent) / abs(parent)
    return d if better == "lower" else -d


def compare(parent, change):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layer_map.json")) as f:
        layer_map = json.load(f)["map"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    def layers(workload):
        p = parent.get((workload, 1)) or next((v for (w, t), v in parent.items() if t), {})
        c = change.get((workload, 1)) or next((v for (w, t), v in change.items() if t), {})
        return p, c

    for w in [w["name"] for w in bench["workloads"]]:
        p_all, c_all = parent.get((w, 0)), change.get((w, 0))
        if not p_all or not c_all:
            print(f"\n== {w}: no untraced runs on both sides")
            continue
        print(f"\n== {w}")
        print(f"{'metric':18} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
              f"{'worse by':>9} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            name = m["name"]
            if name not in p_all or name not in c_all:
                continue
            pm, pq1, pq3, pspread = stats(p_all[name])
            cm, cq1, cq3, _ = stats(c_all[name])
            d = worse_by(better[name], pm, cm)
            if d > bound[name]:
                verdict = "REGRESSION"
            elif d < -bound[name]:
                verdict = "improved"
            elif pspread > bound[name]:
                verdict = "unresolved (spread > bound)"
            else:
                verdict = "within bound"
            print(f"{name:18} {pm:12.6g} [{pq1:9.4g}, {pq3:9.4g}] {cm:12.6g} [{cq1:9.4g}, {cq3:9.4g}] "
                  f"{d:+9.1%} {bound[name]:6.0%}  {verdict}")
            if abs(d) <= bound[name]:
                continue
            pl, cl = layers(w)
            moved = []
            for layer, targets in layer_map.items():
                if [name, w] not in targets or layer not in pl or layer not in cl:
                    continue
                lm, lq1, lq3, _ = stats(pl[layer])
                clm = statistics.median(cl[layer])
                if abs(clm - lm) > (lq3 - lq1):
                    moved.append(f"{layer} {lm:.4g} -> {clm:.4g} "
                                 f"({worse_by(better[layer], lm, clm):+.1%} worse)")
            for line in moved or ["no mapped per-layer metric moved past its spread"]:
                print(f"{'':18}   layer: {line}")
        known = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
        for name in p_all:
            if name in known or name not in c_all:
                continue
            pm, pq1, pq3, _ = stats(p_all[name])
            cm, cq1, cq3, _ = stats(c_all[name])
            rel = (cm - pm) / abs(pm) if pm else 0.0
            print(f"{name:18} {pm:12.6g} [{pq1:9.4g}, {pq3:9.4g}] {cm:12.6g} [{cq1:9.4g}, {cq3:9.4g}] "
                  f"{rel:+9.1%}  (record only, change of the median)")


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    parent = load(sys.argv[1])
    if len(sys.argv) == 2:
        summarise(parent)
    else:
        compare(parent, load(sys.argv[2]))


if __name__ == "__main__":
    main()
