#!/usr/bin/env python3
"""Summarize OBS_<exhibit>.jsonl decision journals.

Reads one or more journal JSONL files (written by the sweep benches
under --obs, one obs::write_event_jsonl line per event) and prints

  * per-event-kind counts, overall and per scenario, and
  * the latency distribution of the repair pipeline
    disable -> ticket -> repair -> re-enable,

entirely from the journal — no BENCH_*.json needed. Stdlib only.

Usage:
  python3 tools/journal_summary.py out/OBS_fig17.jsonl [more.jsonl ...]
  python3 tools/journal_summary.py --per-scenario out/OBS_sec72.jsonl
"""

import argparse
import collections
import json
import sys


def read_events(paths):
    for path in paths:
        stream = sys.stdin if path == "-" else open(path, encoding="utf-8")
        with stream if stream is not sys.stdin else stream:
            for line_number, line in enumerate(stream, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError as error:
                    raise SystemExit(
                        f"{path}:{line_number}: not JSONL: {error}"
                    ) from error


def percentile(sorted_values, q):
    if not sorted_values:
        return float("nan")
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def fmt_duration(seconds):
    if seconds != seconds:  # NaN
        return "-"
    if seconds >= 86400:
        return f"{seconds / 86400:.1f}d"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


def print_latency_row(label, samples):
    values = sorted(samples)
    if not values:
        print(f"  {label:<28} (no samples)")
        return
    mean = sum(values) / len(values)
    print(
        f"  {label:<28} n={len(values):<7} mean={fmt_duration(mean):>7} "
        f"p50={fmt_duration(percentile(values, 0.50)):>7} "
        f"p90={fmt_duration(percentile(values, 0.90)):>7} "
        f"max={fmt_duration(values[-1]):>7}"
    )


class RepairPipeline:
    """Chains disable -> ticket -> repair -> re-enable per scenario."""

    def __init__(self):
        # (scenario, link) -> time of the most recent disable.
        self.disabled_at = {}
        # (scenario, ticket) -> dict with open/disable/repair times + link.
        self.tickets = {}
        self.disable_to_ticket = []
        self.ticket_to_repair = []
        self.repair_to_enable = []
        self.disable_to_enable = []

    def feed(self, event):
        kind = event.get("kind")
        scenario = event.get("scenario", "")
        time = event.get("t", 0)
        link = event.get("link")
        ticket = event.get("ticket")
        if kind == "link_disabled" and link is not None:
            self.disabled_at[(scenario, link)] = time
        elif kind == "ticket_opened" and ticket is not None:
            self.tickets[(scenario, ticket)] = {
                "open": time,
                "link": link,
                "disable": self.disabled_at.get((scenario, link)),
                "repair": None,
            }
        elif (
            kind == "repair_attempt"
            and event.get("reason") == "succeeded"
            and ticket is not None
        ):
            record = self.tickets.get((scenario, ticket))
            if record is not None:
                record["repair"] = time
        elif kind == "link_enabled" and link is not None:
            # Attribute the re-enable to the last repaired ticket on the
            # link (re-enables follow their repair immediately in sim
            # time, so the most recent match is the right one).
            best = None
            for (s, _), record in self.tickets.items():
                if s != scenario or record["link"] != link:
                    continue
                if record["repair"] is None or record["repair"] > time:
                    continue
                if best is None or record["repair"] > best["repair"]:
                    best = record
            if best is None:
                return
            if best["disable"] is not None:
                self.disable_to_ticket.append(best["open"] - best["disable"])
                self.disable_to_enable.append(time - best["disable"])
            self.ticket_to_repair.append(best["repair"] - best["open"])
            self.repair_to_enable.append(time - best["repair"])

    def report(self):
        print("repair pipeline latencies (successful repairs):")
        print_latency_row("disable -> ticket open", self.disable_to_ticket)
        print_latency_row("ticket open -> repair done", self.ticket_to_repair)
        print_latency_row("repair done -> re-enabled", self.repair_to_enable)
        print_latency_row("disable -> re-enabled", self.disable_to_enable)


class DetectionVerdicts:
    """Summarizes detection_verdict records (detailed-obs backends).

    Each record carries: value = estimated loss rate, value2 = 1.0 when
    the verdict is a false positive against simulator ground truth,
    d0 = fault-onset-to-detection latency in seconds, d1 = backend kind
    (enum index: 0 threshold, 1 voting, 2 sketch). Clears carry no
    "reason"; corrupting verdicts carry reason == "succeeded".
    """

    BACKENDS = {0: "threshold", 1: "voting", 2: "sketch"}

    def __init__(self):
        self.corrupting = collections.Counter()
        self.cleared = collections.Counter()
        self.false_positives = collections.Counter()
        self.latencies = collections.defaultdict(list)

    def feed(self, event):
        if event.get("kind") != "detection_verdict":
            return
        backend = self.BACKENDS.get(event.get("d1", 0), "unknown")
        if event.get("reason") == "succeeded":
            self.corrupting[backend] += 1
            if event.get("value2", 0.0) == 1.0:
                self.false_positives[backend] += 1
            latency = event.get("d0")
            if latency:
                self.latencies[backend].append(float(latency))
        else:
            self.cleared[backend] += 1

    def report(self):
        backends = sorted(
            set(self.corrupting) | set(self.cleared), key=str
        )
        if not backends:
            return
        print("\ndetection verdicts by backend:")
        for backend in backends:
            corrupting = self.corrupting[backend]
            fp = self.false_positives[backend]
            fp_rate = fp / corrupting if corrupting else float("nan")
            print(
                f"  {backend:<12} corrupting={corrupting:<7} "
                f"cleared={self.cleared[backend]:<7} "
                f"false_pos={fp} (rate={fp_rate:.3f})"
            )
        print("detection latency (fault onset -> verdict):")
        for backend in backends:
            print_latency_row(backend, self.latencies[backend])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="journal JSONL files ('-' = stdin)")
    parser.add_argument(
        "--per-scenario",
        action="store_true",
        help="also print event-kind counts per scenario",
    )
    args = parser.parse_args()

    kind_counts = collections.Counter()
    scenario_kind_counts = collections.defaultdict(collections.Counter)
    scenarios = []
    pipeline = RepairPipeline()
    verdicts = DetectionVerdicts()
    total = 0
    for event in read_events(args.paths):
        total += 1
        kind = event.get("kind", "?")
        scenario = event.get("scenario", "")
        kind_counts[kind] += 1
        if scenario not in scenario_kind_counts:
            scenarios.append(scenario)
        scenario_kind_counts[scenario][kind] += 1
        pipeline.feed(event)
        verdicts.feed(event)

    print(f"{total} events, {len(scenarios)} scenario(s)\n")
    print("events by kind:")
    for kind, count in kind_counts.most_common():
        print(f"  {kind:<24} {count}")
    print()
    if args.per_scenario:
        for scenario in scenarios:
            counts = scenario_kind_counts[scenario]
            print(f"scenario {scenario or '(unnamed)'}: {sum(counts.values())} events")
            for kind, count in counts.most_common():
                print(f"  {kind:<24} {count}")
            print()
    pipeline.report()
    verdicts.report()


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:  # e.g. `journal_summary.py ... | head`
        sys.exit(0)
