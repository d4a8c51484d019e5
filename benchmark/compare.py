#!/usr/bin/env python3
"""Summarise and compare benchmark result documents.

Every benchmark run writes its document to
`.bench_run/results/<workload>-seed<n>-trace<t>.json`.

    python3 benchmark/compare.py spread RESULT.json...
    python3 benchmark/compare.py compare BASE_DIR NEW_DIR

`spread` prints, per workload and metric, the median of the runs and the
distance between their first and third quartiles as a share of the
median: the end-to-end metrics of the untraced runs and the per-layer
metrics of the traced runs. Given both kinds for a workload, it also
prints the tracing overhead: how far the median end-to-end figures of
the traced runs lie from those of the untraced runs. Alternate traced
and untraced runs for that figure; the speed of a shared host drifts
over minutes, and runs taken in two blocks measure the drift.

`compare` prints the medians of two sets of runs and flags every
end-to-end metric that got worse by more than its bound in
BENCHMARK.json. Timed metrics are only compared between results whose
host fingerprints (nproc, CPU model, rustc, cargo features) are equal:
on a mismatch it refuses and exits 3. It exits 1 if a run failed its
correctness gate or a metric regressed beyond its bound.
"""

import json
import pathlib
import statistics
import sys

HOST_KEYS = ("nproc", "cpu_model", "rustc", "features")
ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(paths):
    docs = [json.loads(pathlib.Path(p).read_text()) for p in paths]
    if not docs:
        sys.exit("no result documents given")
    return docs


def by_workload(docs, section):
    table = {}
    for d in docs:
        for name, m in (d.get(section) or {}).items():
            table.setdefault(d["workload"], {}).setdefault(name, []).append(m["value"])
    return table


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def host(doc):
    return tuple(doc["fingerprint"][k] for k in HOST_KEYS)


def spread(paths):
    docs = load(paths)
    untraced = by_workload([d for d in docs if not d["trace"]], "end_to_end")
    traced_e2e = by_workload([d for d in docs if d["trace"]], "end_to_end")
    for title, table in (
        ("end to end, untraced runs", untraced),
        ("per layer, traced runs", by_workload([d for d in docs if d["trace"]], "per_layer")),
    ):
        for workload, metrics in sorted(table.items()):
            print(f"{workload}: {title} ({len(next(iter(metrics.values())))} runs)")
            for name, values in metrics.items():
                med, iqr = summary(values)
                print(f"  {name:<32} median {med:>14.4f}  IQR/median {iqr:7.2%}")
    for workload in sorted(set(untraced) & set(traced_e2e)):
        print(f"{workload}: tracing overhead, traced median against untraced median")
        for name, values in untraced[workload].items():
            if name in traced_e2e[workload]:
                base = statistics.median(values)
                gap = (statistics.median(traced_e2e[workload][name]) - base) / base
                print(f"  {name:<32} {gap:+8.2%}")
    return 0 if all(d["correct"] for d in docs) else 1


def compare(base_dir, new_dir):
    # End-to-end figures come from untraced runs only.
    base = [d for d in load(sorted(pathlib.Path(base_dir).glob("*.json"))) if not d["trace"]]
    new = [d for d in load(sorted(pathlib.Path(new_dir).glob("*.json"))) if not d["trace"]]
    if not base or not new:
        sys.exit("no untraced result documents to compare")
    hosts = {host(d) for d in base + new}
    if len(hosts) != 1:
        print("refusing to compare timed metrics across host fingerprints:", file=sys.stderr)
        for h in sorted(hosts):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_KEYS, h)), file=sys.stderr)
        return 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    status = 0 if all(d["correct"] for d in base + new) else 1
    b_table, n_table = by_workload(base, "end_to_end"), by_workload(new, "end_to_end")
    for workload in sorted(b_table):
        print(workload)
        for name, b_values in b_table[workload].items():
            n_values = n_table.get(workload, {}).get(name)
            if not n_values or name not in bounds:
                continue
            (b_med, b_iqr), (n_med, _) = summary(b_values), summary(n_values)
            worse = (n_med - b_med) / b_med
            if bounds[name]["better"] == "higher":
                worse = -worse
            verdict = "ok"
            if worse > bounds[name]["bound"]:
                verdict, status = "WORSE beyond bound", 1
            elif abs(worse) <= b_iqr:
                verdict = "within the base's own spread"
            print(
                f"  {name:<16} {b_med:>14.4f} -> {n_med:>14.4f} "
                f"({worse:+.2%} worse, bound {bounds[name]['bound']:.0%}) {verdict}"
            )
    return status


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "spread":
        sys.exit(spread(sys.argv[2:]))
    if len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    sys.exit(__doc__)
