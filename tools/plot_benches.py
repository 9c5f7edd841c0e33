#!/usr/bin/env python3
"""Plot bench output: BENCH_*.json metrics files and/or `csv,` rows.

Usage:
    # Structured output (preferred): benches write BENCH_<exhibit>.json
    for b in build/bench/bench_*; do $b --json-dir=out/; done
    python3 tools/plot_benches.py out/ out/

    # Legacy: grep-able csv rows on stdout
    for b in build/bench/bench_*; do $b; done > all_benches.txt
    python3 tools/plot_benches.py all_benches.txt out/

Inputs may be any mix of BENCH_*.json files, directories containing them,
and csv-row text captures; the last argument is the output directory.
Produces one PNG per exhibit that has a natural plot (Figure 1, 2b, 3b,
4, 14, 15, 16, 17, 18). Requires matplotlib; the benches themselves do
not. The JSON schema (corropt-bench-metrics/1) is documented in
EXPERIMENTS.md.
"""

import collections
import glob
import json
import os
import sys


def parse_csv_capture(path, rows):
    with open(path) as handle:
        for line in handle:
            if not line.startswith("csv,"):
                continue
            parts = line.strip().split(",")
            rows[parts[1]].append(parts[2:])


def load_metrics_json(path):
    with open(path) as handle:
        doc = json.load(handle)
    if doc.get("schema") not in ("corropt-bench-metrics/1",
                                 "corropt-whatif/1"):
        raise ValueError(f"{path}: unknown schema {doc.get('schema')!r}")
    return doc


def scenarios_by_tags(doc, *tag_keys):
    """Groups a document's scenarios by the given tag values; within a
    group, scenarios keep submission order (mode order is fixed per
    bench)."""
    groups = collections.defaultdict(list)
    for scenario in doc["scenarios"]:
        tags = scenario.get("tags", {})
        groups[tuple(tags.get(k) for k in tag_keys)].append(scenario)
    return groups


def weekly_minima(series, week_s=7 * 24 * 3600.0):
    minima, current, week_end = [], 1.0, week_s
    for t, v in zip(series["time_s"], series["value"]):
        if t >= week_end:
            minima.append(current)
            current, week_end = 1.0, week_end + week_s
        current = min(current, v)
    minima.append(current)
    return minima


def quantiles(values, fractions):
    ordered = sorted(values)
    out = []
    for q in fractions:
        index = min(int(q * len(ordered)), len(ordered) - 1)
        out.append(ordered[index])
    return out


def absorb_json(doc, rows):
    """Converts a metrics document into the same row shapes the csv
    capture produces, so the plotting code below has one input format."""
    exhibit = doc["exhibit"]
    if doc.get("schema") == "corropt-whatif/1":
        # One row per document: wall clocks for the prefix-reuse speedup
        # bar, plus the branch count / fraction for the annotation.
        rows["whatif"].append([
            repr(doc["prefix_wall_s"]),
            repr(doc["branched_wall_s"]),
            repr(doc["fresh_wall_s"]),
            repr(doc["speedup"]),
            str(doc["branches"]),
            repr(doc["branch_fraction"]),
        ])
        return
    if exhibit == "fig17":
        for (dcn, constraint), pair in scenarios_by_tags(
                doc, "dcn", "constraint").items():
            by_mode = {s["tags"]["mode"]: s["metrics"] for s in pair}
            local = by_mode["switch-local"]["integrated_penalty"]
            corropt = by_mode["corropt"]["integrated_penalty"]
            ratio = (1.0 if local == 0.0 and corropt == 0.0
                     else 1e9 if local == 0.0 else corropt / local)
            rows["fig17"].append([dcn, constraint, repr(local),
                                  repr(corropt), repr(ratio)])
    elif exhibit == "fig18":
        for (constraint,), pair in scenarios_by_tags(
                doc, "constraint").items():
            by_mode = {s["tags"]["mode"]: s["metrics"] for s in pair}
            fast = by_mode["fast-checker"]["hourly_penalty"]
            corropt = by_mode["corropt"]["hourly_penalty"]
            ratios = []
            for f, c in zip(fast, corropt):
                if f <= 0.0:
                    ratios.append(1.0)
                else:
                    ratios.append(min(c / f, 1.0))
            fractions = [0.01, 0.02, 0.05, 0.07, 0.10, 0.25, 0.5, 0.9]
            for q, r in zip(fractions, quantiles(ratios, fractions)):
                rows["fig18"].append([constraint, repr(q), repr(r)])
    elif exhibit == "fig15_16":
        for (figure, dcn), pair in scenarios_by_tags(
                doc, "figure", "dcn").items():
            by_mode = {s["tags"]["mode"]: s["metrics"] for s in pair}
            local = weekly_minima(by_mode["switch-local"]
                                  ["worst_tor_fraction"])
            corropt = weekly_minima(by_mode["corropt"]["worst_tor_fraction"])
            for week, (sl, co) in enumerate(zip(local, corropt), start=1):
                rows[f"fig{figure}"].append(
                    [dcn, str(week), repr(sl), repr(co)])
    elif exhibit == "fleet":
        # One row per DC: name, shape, links, integrated penalty, mean
        # ToR fraction (canonical key order, as serialized).
        for scenario in doc["scenarios"]:
            metrics = scenario["metrics"]
            rows["fleet"].append([
                scenario["name"],
                scenario["tags"]["shape"],
                str(scenario["link_count"]),
                repr(metrics["integrated_penalty"]),
                repr(metrics["mean_tor_fraction"]),
            ])
    elif exhibit in ("runtime_optimizer", "runtime_fastchecker"):
        # Scenarios are raw google-benchmark runs: "BM_Family/arg" names
        # plus normalized millisecond timings and optional counters
        # (candidates, links).
        for scenario in doc["scenarios"]:
            name = scenario["name"]
            family, _, arg = name.partition("/")
            metrics = scenario["metrics"]
            rows[exhibit].append([
                family, arg,
                repr(metrics["real_time_ms"]),
                repr(metrics.get("candidates", metrics.get("links", 0.0))),
            ])
    elif exhibit == "runtime_controller":
        # Loop rows: scenario, mode, churn rate (events/day), dec/sec,
        # mean/p50/p99 latency ms. Summary rows carry the segment reuses.
        for scenario in doc["scenarios"]:
            name, _, mode = scenario["name"].partition("/")
            metrics = scenario["metrics"]
            if mode == "summary":
                rows["runtime_controller_summary"].append(
                    [name, repr(metrics["segment_reuses"])])
                continue
            rows["runtime_controller"].append([
                name, mode,
                repr(metrics.get("events_per_day", metrics["events"])),
                repr(metrics["decisions_per_sec"]),
                repr(metrics["mean_ms"]),
                repr(metrics["p50_ms"]),
                repr(metrics["p99_ms"]),
            ])
    elif exhibit == "detection_compare":
        # One row per backend x fault-mix cell: latency percentiles plus
        # the accuracy/penalty trade against the threshold baseline.
        for scenario in doc["scenarios"]:
            tags = scenario["tags"]
            det = scenario["detection"]
            rows["detection_compare"].append([
                tags["backend"], tags["mix"],
                repr(det["latency_p50_s"]),
                repr(det["latency_p90_s"]),
                repr(det["latency_p99_s"]),
                repr(det["fp_rate"]),
                repr(det["fn_rate"]),
                repr(det["penalty_delta_vs_threshold"]),
            ])
    # Other exhibits (sec73, sec51_tiers, ablation_penalty, ...) carry
    # their full metrics in JSON but have no standard plot here yet.


def gather(inputs):
    rows = collections.defaultdict(list)
    paths = []
    for item in inputs:
        if os.path.isdir(item):
            found = sorted(glob.glob(os.path.join(item, "BENCH_*.json")))
            if not found:
                print(f"warning: no BENCH_*.json under {item}",
                      file=sys.stderr)
            paths.extend(found)
        else:
            paths.append(item)
    for path in paths:
        if path.endswith(".json"):
            absorb_json(load_metrics_json(path), rows)
        else:
            parse_csv_capture(path, rows)
    return rows


def main():
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    rows = gather(sys.argv[1:-1])
    outdir = sys.argv[-1]
    os.makedirs(outdir, exist_ok=True)

    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    def save(fig, name):
        fig.savefig(os.path.join(outdir, name), dpi=150,
                    bbox_inches="tight")
        plt.close(fig)
        print("wrote", os.path.join(outdir, name))

    if "fig1" in rows:
        data = [(int(r[0]), float(r[2]), float(r[3])) for r in rows["fig1"]]
        fig, ax = plt.subplots()
        ax.errorbar([d[0] for d in data], [d[1] for d in data],
                    yerr=[d[2] for d in data], fmt="o")
        ax.axhline(1.0, linestyle="--", color="grey")
        ax.set_yscale("log")
        ax.set_xlabel("DCN (sorted by size)")
        ax.set_ylabel("corruption / congestion losses per day")
        ax.set_title("Figure 1: extent of corruption")
        save(fig, "fig01.png")

    for key, title, fname in [("fig2b", "Figure 2b: CV of loss rate",
                               "fig02b.png"),
                              ("fig3b", "Figure 3b: Pearson correlation",
                               "fig03b.png")]:
        if key not in rows:
            continue
        data = [(float(r[0]), float(r[1]), float(r[2])) for r in rows[key]]
        fig, ax = plt.subplots()
        ax.plot([d[1] for d in data], [d[0] for d in data],
                label="corruption")
        ax.plot([d[2] for d in data], [d[0] for d in data],
                label="congestion")
        ax.set_ylabel("CDF")
        ax.legend()
        ax.set_title(title)
        save(fig, fname)

    if "fig4" in rows:
        data = [(int(r[0]), float(r[1]), float(r[2])) for r in rows["fig4"]]
        fig, ax = plt.subplots()
        ax.plot([d[0] for d in data], [d[1] for d in data], "o-",
                label="corruption")
        ax.plot([d[0] for d in data], [d[2] for d in data], "s-",
                label="congestion")
        ax.set_xlabel("worst x% of lossy links")
        ax.set_ylabel("locality ratio")
        ax.set_ylim(0, 1.1)
        ax.legend()
        ax.set_title("Figure 4: spatial locality")
        save(fig, "fig04.png")

    if "fig14" in rows:
        series = collections.defaultdict(lambda: ([], [], []))
        for r in rows["fig14"]:
            dcn, day, sl, co = r[0], int(r[1]), float(r[2]), float(r[3])
            series[dcn][0].append(day)
            series[dcn][1].append(max(sl, 1e-10))
            series[dcn][2].append(max(co, 1e-10))
        for dcn, (days, sl, co) in series.items():
            fig, ax = plt.subplots()
            ax.semilogy(days, sl, label="switch-local")
            ax.semilogy(days, co, label="CorrOpt")
            ax.set_xlabel("day")
            ax.set_ylabel("penalty / s")
            ax.legend()
            ax.set_title(f"Figure 14: total penalty over time ({dcn})")
            save(fig, f"fig14_{dcn}.png")

    for key, limit in [("fig15", 0.75), ("fig16", 0.50)]:
        if key not in rows:
            continue
        series = collections.defaultdict(lambda: ([], [], []))
        for r in rows[key]:
            dcn, week, sl, co = r[0], int(r[1]), float(r[2]), float(r[3])
            series[dcn][0].append(week)
            series[dcn][1].append(sl)
            series[dcn][2].append(co)
        fig, ax = plt.subplots()
        for dcn, (weeks, sl, co) in series.items():
            ax.plot(weeks, sl, "o-", label=f"switch-local ({dcn})")
            ax.plot(weeks, co, "s-", label=f"CorrOpt ({dcn})")
        ax.axhline(limit, linestyle="--", color="grey",
                   label=f"constraint {limit:.0%}")
        ax.set_xlabel("week")
        ax.set_ylabel("worst ToR path fraction (weekly min)")
        ax.set_ylim(0, 1.05)
        ax.legend(fontsize=8)
        number = "15" if key == "fig15" else "16"
        ax.set_title(f"Figure {number}: worst ToR under c = {limit:.0%}")
        save(fig, f"fig{number}.png")

    if "fig17" in rows:
        series = collections.defaultdict(lambda: ([], []))
        for r in rows["fig17"]:
            dcn, c, ratio = r[0], float(r[1]), float(r[4])
            series[dcn][0].append(c * 100)
            series[dcn][1].append(max(ratio, 1e-9))
        fig, ax = plt.subplots()
        for dcn, (cs, ratios) in series.items():
            ax.semilogy(cs, ratios, "o-", label=dcn)
        ax.set_xlabel("capacity constraint (%)")
        ax.set_ylabel("penalty ratio (CorrOpt / switch-local)")
        ax.legend()
        ax.set_title("Figure 17: constraint sweep")
        save(fig, "fig17.png")

    if "fig18" in rows:
        series = collections.defaultdict(lambda: ([], []))
        for r in rows["fig18"]:
            c, q, ratio = float(r[0]), float(r[1]), float(r[2])
            series[c][0].append(max(ratio, 1e-9))
            series[c][1].append(q)
        fig, ax = plt.subplots()
        for c, (ratios, qs) in series.items():
            ax.semilogx(ratios, qs, "o-", label=f"c={c:.3f}")
        ax.set_xlabel("hourly penalty ratio (CorrOpt / fast checker)")
        ax.set_ylabel("CDF")
        ax.legend()
        ax.set_title("Figure 18: optimizer gain")
        save(fig, "fig18.png")

    def runtime_series(key, x_index):
        series = collections.defaultdict(lambda: ([], []))
        for r in rows[key]:
            family, x = r[0], float(r[x_index])
            if x <= 0.0:
                continue
            series[family][0].append(x)
            series[family][1].append(float(r[2]))
        for xs, ys in series.values():
            order = sorted(range(len(xs)), key=lambda i: xs[i])
            xs[:], ys[:] = [xs[i] for i in order], [ys[i] for i in order]
        return series

    if "runtime_optimizer" in rows:
        # x = candidate count (the candidates counter, or the /arg).
        series = runtime_series("runtime_optimizer", 3)
        fig, ax = plt.subplots()
        for family, (xs, ys) in sorted(series.items()):
            ax.plot(xs, ys, "o-", label=family)
        ax.set_yscale("log")
        ax.set_xlabel("active corrupting links (candidates)")
        ax.set_ylabel("optimizer run time (ms)")
        ax.legend()
        ax.set_title("Optimizer runtime vs candidate count (Section 5.1)")
        save(fig, "runtime_optimizer.png")

    if "runtime_fastchecker" in rows:
        # x = topology link count (the links counter); benches without it
        # (the raw sweep, keyed by fat-tree k) are dropped here.
        series = runtime_series("runtime_fastchecker", 3)
        fig, ax = plt.subplots()
        for family, (xs, ys) in sorted(series.items()):
            style = "o-" if len(xs) > 1 else "D"
            ax.plot(xs, ys, style, label=family)
        ax.set_xscale("log")
        ax.set_yscale("log")
        ax.set_xlabel("topology links")
        ax.set_ylabel("decision time (ms)")
        ax.legend(fontsize=8)
        ax.set_title("Fast-checker decision time vs topology size")
        save(fig, "runtime_fastchecker.png")

    if "runtime_controller" in rows:
        # Decision latency and sustained throughput vs churn rate
        # (DESIGN.md §12, EXPERIMENTS.md runtime section).
        styles = {"loop": "s-"}
        by_mode = collections.defaultdict(lambda: ([], [], [], []))
        for r in rows["runtime_controller"]:
            mode, churn = r[1], float(r[2])
            by_mode[mode][0].append(churn)
            by_mode[mode][1].append(float(r[3]))   # dec/sec
            by_mode[mode][2].append(float(r[5]))   # p50 ms
            by_mode[mode][3].append(float(r[6]))   # p99 ms
        for series in by_mode.values():
            order = sorted(range(len(series[0])), key=lambda i: series[0][i])
            for col in series:
                col[:] = [col[i] for i in order]

        fig, ax = plt.subplots()
        for mode, (churn, _, p50, p99) in sorted(by_mode.items()):
            style = styles.get(mode, "o-")
            ax.loglog(churn, p99, style, label=f"{mode} p99")
            ax.loglog(churn, p50, style, alpha=0.4, label=f"{mode} p50")
        ax.set_xlabel("churn rate (telemetry events / day)")
        ax.set_ylabel("per-event decision latency (ms)")
        ax.legend(fontsize=8)
        ax.set_title("Control loop: decision latency vs churn rate")
        save(fig, "runtime_controller_latency.png")

        fig, ax = plt.subplots()
        for mode, (churn, dps, _, _) in sorted(by_mode.items()):
            ax.loglog(churn, dps, styles.get(mode, "o-"), label=mode)
        ax.set_xlabel("churn rate (telemetry events / day)")
        ax.set_ylabel("sustained decisions / s")
        ax.legend()
        ax.set_title("Control loop: throughput vs churn rate")
        save(fig, "runtime_controller_throughput.png")

    if "detection_compare" in rows:
        # Detection-latency distribution per backend: the three reported
        # percentile points, one line per backend x fault mix.
        backend_colors = {"threshold": "C0", "voting": "C1", "sketch": "C2"}
        mix_styles = {"table2": "-", "contamination_heavy": "--",
                      "shared_heavy": ":"}
        fig, ax = plt.subplots()
        for r in rows["detection_compare"]:
            backend, mix = r[0], r[1]
            latencies = [float(r[2]), float(r[3]), float(r[4])]
            ax.semilogx(latencies, [0.50, 0.90, 0.99],
                        marker="o",
                        linestyle=mix_styles.get(mix, "-"),
                        color=backend_colors.get(backend, "C7"),
                        label=f"{backend} ({mix})")
        ax.set_xlabel("fault onset to detection (s)")
        ax.set_ylabel("CDF (p50 / p90 / p99)")
        ax.set_ylim(0.4, 1.0)
        ax.legend(fontsize=6)
        ax.set_title("Detection latency by backend and fault mix")
        save(fig, "detection_latency_cdf.png")

        # The accuracy/penalty trade: false-positive rate against the
        # end-to-end penalty delta vs the threshold baseline.
        fig, ax = plt.subplots()
        for r in rows["detection_compare"]:
            backend, mix = r[0], r[1]
            fp_rate, delta = float(r[5]), float(r[7])
            ax.scatter(fp_rate, 100.0 * delta,
                       color=backend_colors.get(backend, "C7"))
            ax.annotate(f"{backend}/{mix}", (fp_rate, 100.0 * delta),
                        fontsize=5, alpha=0.8)
        ax.axhline(0.0, linestyle="--", color="grey")
        ax.set_xlabel("false-positive rate")
        ax.set_ylabel("integrated-penalty delta vs threshold (%)")
        ax.set_title("Detection backends: FP rate vs end-to-end penalty")
        save(fig, "detection_fp_vs_penalty.png")

    if "whatif" in rows:
        # Prefix-reuse speedup (DESIGN.md §14): fresh wall clock vs the
        # shared-prefix + branches stack, annotated with the measured
        # speedup. One bar pair per BENCH_whatif.json input.
        fig, ax = plt.subplots()
        width = 0.35
        for i, r in enumerate(rows["whatif"]):
            prefix, branched, fresh = float(r[0]), float(r[1]), float(r[2])
            speedup, branches = float(r[3]), int(r[4])
            ax.bar(i - width / 2, fresh, width, color="C3",
                   label="fresh (N full runs)" if i == 0 else None)
            ax.bar(i + width / 2, prefix, width, color="C0",
                   label="shared prefix" if i == 0 else None)
            ax.bar(i + width / 2, branched, width, bottom=prefix,
                   color="C2", label="branches" if i == 0 else None)
            ax.annotate(f"{speedup:.1f}x\n({branches} branches)",
                        (i + width / 2, prefix + branched),
                        ha="center", va="bottom", fontsize=8)
        ax.set_xticks(range(len(rows["whatif"])))
        ax.set_xticklabels([f"run {i}" for i in
                            range(len(rows["whatif"]))])
        ax.set_ylabel("wall clock (s)")
        ax.set_title("What-if sweep: fresh vs checkpoint-branched "
                     "execution")
        ax.legend(fontsize=8)
        save(fig, "whatif_speedup.png")

    if "fleet" in rows:
        # Per-DC integrated penalty, sorted descending, colored by shape,
        # with marker size tracking DC link count.
        data = [(r[0], r[1], int(r[2]), float(r[3])) for r in rows["fleet"]]
        data.sort(key=lambda d: -d[3])
        colors = {"large": "C3", "medium": "C0", "xgft": "C2"}
        fig, ax = plt.subplots(figsize=(max(8, len(data) * 0.18), 4.5))
        xs = range(len(data))
        ax.bar(xs, [max(d[3], 1e-2) for d in data],
               color=[colors.get(d[1], "C7") for d in data])
        ax.set_yscale("log")
        ax.set_xticks(list(xs))
        ax.set_xticklabels([d[0] for d in data], rotation=90, fontsize=5)
        ax.set_ylabel("integrated penalty")
        handles = [plt.Rectangle((0, 0), 1, 1, color=c)
                   for c in colors.values()]
        ax.legend(handles, colors.keys(), fontsize=8)
        ax.set_title("Fleet campaign: per-DC integrated penalty "
                     f"({len(data)} DCs)")
        save(fig, "fleet_penalty.png")

        # DC size vs unavailability scatter.
        fig, ax = plt.subplots()
        by_shape = collections.defaultdict(lambda: ([], []))
        for r in rows["fleet"]:
            by_shape[r[1]][0].append(int(r[2]))
            by_shape[r[1]][1].append(1.0 - float(r[4]))
        for shape, (links, unavail) in sorted(by_shape.items()):
            ax.scatter(links, [max(u, 1e-6) for u in unavail],
                       color=colors.get(shape, "C7"), label=shape)
        ax.set_xscale("log")
        ax.set_yscale("log")
        ax.set_xlabel("DC links")
        ax.set_ylabel("1 - mean ToR path fraction")
        ax.legend()
        ax.set_title("Fleet campaign: DC size vs unavailability")
        save(fig, "fleet_availability.png")

    return 0


if __name__ == "__main__":
    sys.exit(main())
