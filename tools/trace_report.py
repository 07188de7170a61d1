#!/usr/bin/env python3
"""Validate, render, and diff dcl-run-report v1 JSON files.

Usage: trace_report.py --validate REPORT [REPORT ...]
       trace_report.py --summary REPORT
       trace_report.py --diff OLD NEW [--rounds-tolerance PCT]
                                      [--messages-tolerance PCT]

The reports are emitted by `dcl list --report FILE` (and by bench_core
when DCL_BENCH_REPORT_DIR is set). Their content is purely virtual-time
(ledger rounds / messages / work units), so two runs of the same build
and inputs must produce byte-identical files at any DCL_THREADS — the CI
trace-smoke leg relies on that.

  --validate   schema-check one or more reports: required keys, types,
               version, clock/ledger consistency. Exit 1 on the first
               violation, naming it.
  --summary    render one report as human-readable tables: ledger
               breakdown, deepest/widest spans, metric snapshot.
  --diff       compare two reports phase by phase and counter by counter.
               Exact integers (messages, counters) must match within the
               messages tolerance; ledger rounds within the rounds
               tolerance (both default 0%%: any growth is a regression).
               Improvements are reported but never fail. Exit 1 on
               regression.

Exit codes: 0 clean, 1 validation failure or regression, 2 usage error,
3 a report file is missing or unreadable.
"""

import json
import sys


def fail(msg):
    print("trace_report: " + msg, file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print("trace_report: cannot read %s: %s" % (path, exc),
              file=sys.stderr)
        sys.exit(3)


# ---- validation ----------------------------------------------------------

NUMBER = (int, float)


def expect(cond, path, msg):
    if not cond:
        fail("%s: %s" % (path, msg))


def validate_ledger(led, path):
    if led is None:  # legal: the schema allows a report with no ledger
        return
    expect(isinstance(led, dict), path, "ledger must be an object")
    for key in ("total_rounds", "total_messages", "entries"):
        expect(isinstance(led.get(key), NUMBER), path,
               "ledger.%s must be a number" % key)
    kinds = led.get("rounds_by_kind")
    expect(isinstance(kinds, dict), path, "ledger.rounds_by_kind missing")
    for kind in ("exchange", "routing", "analytic"):
        expect(isinstance(kinds.get(kind), NUMBER), path,
               "rounds_by_kind.%s must be a number" % kind)
    rows = led.get("breakdown")
    expect(isinstance(rows, list), path, "ledger.breakdown must be an array")
    rounds = 0.0
    messages = 0
    for i, row in enumerate(rows):
        where = "%s: breakdown[%d]" % (path, i)
        expect(isinstance(row, dict), where, "must be an object")
        expect(isinstance(row.get("label"), str), where, "label must be a string")
        expect(isinstance(row.get("kind"), str), where, "kind must be a string")
        expect(isinstance(row.get("rounds"), NUMBER), where,
               "rounds must be a number")
        expect(isinstance(row.get("messages"), int), where,
               "messages must be an integer")
        rounds += row["rounds"]
        messages += row["messages"]
    expect(abs(rounds - led["total_rounds"]) < 1e-6, path,
           "breakdown rounds (%s) do not sum to total_rounds (%s)"
           % (rounds, led["total_rounds"]))
    expect(messages == led["total_messages"], path,
           "breakdown messages (%d) do not sum to total_messages (%d)"
           % (messages, led["total_messages"]))
    retry = led.get("retry")
    expect(isinstance(retry, dict), path, "ledger.retry missing")
    for key in ("retry_rounds", "retransmitted_messages", "lost_messages"):
        expect(isinstance(retry.get(key), NUMBER), path,
               "retry.%s must be a number" % key)


def validate_metrics(metrics, path):
    expect(isinstance(metrics, dict), path, "metrics must be an object")
    for section in ("counters", "gauges"):
        table = metrics.get(section)
        expect(isinstance(table, dict), path,
               "metrics.%s must be an object" % section)
        for name, value in table.items():
            expect(isinstance(value, int), path,
                   "metrics.%s[%s] must be an integer" % (section, name))
    histos = metrics.get("histograms")
    expect(isinstance(histos, dict), path, "metrics.histograms missing")
    for name, h in histos.items():
        where = "%s: histogram %s" % (path, name)
        for key in ("count", "sum", "min", "max"):
            expect(isinstance(h.get(key), int), where,
                   "%s must be an integer" % key)
        buckets = h.get("buckets")
        expect(isinstance(buckets, dict), where, "buckets must be an object")
        expect(sum(buckets.values()) == h["count"], where,
               "bucket counts do not sum to count")


def validate_trace(trace, path):
    expect(isinstance(trace, dict), path, "trace must be an object")
    for key in ("span_count", "instant_count", "max_depth"):
        expect(isinstance(trace.get(key), int), path,
               "trace.%s must be an integer" % key)
    clock = trace.get("clock")
    expect(isinstance(clock, dict), path, "trace.clock missing")
    for key in ("rounds", "messages", "work"):
        expect(isinstance(clock.get(key), NUMBER), path,
               "clock.%s must be a number" % key)
    spans = trace.get("spans")
    expect(isinstance(spans, list), path, "trace.spans must be an array")
    expect(len(spans) == trace["span_count"], path,
           "span_count does not match len(spans)")
    for i, span in enumerate(spans):
        where = "%s: spans[%d]" % (path, i)
        expect(isinstance(span.get("name"), str), where, "name must be a string")
        expect(isinstance(span.get("cat"), str), where,
               "cat must be a string")
        expect(isinstance(span.get("depth"), int), where,
               "depth must be an integer")
        expect(span["depth"] <= trace["max_depth"], where,
               "depth exceeds max_depth")
        expect(isinstance(span.get("parent"), int), where,
               "parent must be an integer span id")
        expect(-1 <= span["parent"] < i, where,
               "parent must precede the span (or be -1)")
        # Coordinates are [begin, end] pairs on each virtual axis.
        for axis in ("rounds", "messages", "work"):
            pair = span.get(axis)
            expect(isinstance(pair, list) and len(pair) == 2
                   and all(isinstance(v, NUMBER) for v in pair), where,
                   "%s must be a [begin, end] number pair" % axis)
            expect(pair[1] >= pair[0], where,
                   "span ends before it begins (%s)" % axis)
        # The run report is virtual-time only; a wall-clock field in a span
        # means the overlay leaked past the chrome-trace exporter.
        for key in span:
            expect("wall" not in key, where,
                   "wall-clock field '%s' in run report" % key)
    instants = trace.get("instants")
    expect(isinstance(instants, list), path, "trace.instants must be an array")
    expect(len(instants) == trace["instant_count"], path,
           "instant_count does not match len(instants)")
    for i, event in enumerate(instants):
        where = "%s: instants[%d]" % (path, i)
        expect(isinstance(event.get("name"), str), where,
               "name must be a string")
        expect(isinstance(event.get("cat"), str), where, "cat must be a string")
        for axis in ("rounds", "messages", "work"):
            expect(isinstance(event.get(axis), NUMBER), where,
                   "%s must be a number" % axis)
        for key in event:
            expect("wall" not in key, where,
                   "wall-clock field '%s' in run report" % key)


def validate(report, path):
    expect(isinstance(report, dict), path, "report must be a JSON object")
    expect(report.get("schema") == "dcl-run-report", path,
           "schema must be 'dcl-run-report' (got %r)" % report.get("schema"))
    expect(report.get("version") == 1, path,
           "version must be 1 (got %r)" % report.get("version"))
    expect(isinstance(report.get("command"), str), path,
           "command must be a string")
    validate_ledger(report.get("ledger"), path)
    validate_metrics(report.get("metrics"), path)
    validate_trace(report.get("trace"), path)


# ---- summary -------------------------------------------------------------

def render_summary(report):
    led = report["ledger"]
    trace = report["trace"]
    print("command:  %s" % report["command"])
    if led is None:
        print("ledger:   none (run charged no rounds)")
    else:
        print("ledger:   %.1f rounds, %d messages, %d entries"
              % (led["total_rounds"], led["total_messages"], led["entries"]))
        retry = led["retry"]
        if retry["retry_rounds"] or retry["retransmitted_messages"] \
                or retry["lost_messages"]:
            print("recovery: %.1f retry rounds, %d retransmitted, %d lost"
                  % (retry["retry_rounds"], retry["retransmitted_messages"],
                     retry["lost_messages"]))
    print()
    rows = led["breakdown"] if led is not None else []
    if rows:
        width = max(24, max(len(r["label"]) for r in rows))
        print("  %-*s %-8s %12s %14s" % (width, "phase", "kind", "rounds",
                                         "messages"))
        for row in rows:
            print("  %-*s %-8s %12.1f %14d" % (width, row["label"],
                                               row["kind"], row["rounds"],
                                               row["messages"]))
        print()
    spans = trace["spans"]
    print("trace:    %d spans, %d instants, depth %d"
          % (trace["span_count"], trace["instant_count"], trace["max_depth"]))
    if spans:
        width = max(20, max(2 * s["depth"] + len(s["name"]) for s in spans))
        print("  %-*s %-14s %10s %12s %14s" % (width, "span", "category",
                                               "rounds", "messages", "work"))
        for span in spans:
            name = "  " * span["depth"] + span["name"]
            print("  %-*s %-14s %10.1f %12d %14d"
                  % (width, name, span["cat"],
                     span["rounds"][1] - span["rounds"][0],
                     span["messages"][1] - span["messages"][0],
                     span["work"][1] - span["work"][0]))
        print()
    metrics = report["metrics"]
    if metrics["counters"] or metrics["gauges"]:
        print("metrics:")
        for name in sorted(metrics["counters"]):
            print("  %-36s %14d" % (name, metrics["counters"][name]))
        for name in sorted(metrics["gauges"]):
            print("  %-36s %14d  (gauge)" % (name, metrics["gauges"][name]))
    for name in sorted(metrics["histograms"]):
        h = metrics["histograms"][name]
        mean = h["sum"] / h["count"] if h["count"] else 0.0
        print("  %-36s count=%d min=%d mean=%.1f max=%d"
              % (name, h["count"], h["min"], mean, h["max"]))


# ---- diff ----------------------------------------------------------------

def grew(old, new, tolerance_pct):
    if new <= old:
        return False
    if old == 0:
        return True
    return (new - old) / old * 100.0 > tolerance_pct


def diff(old, new, rounds_tol, messages_tol):
    regressions = []
    improvements = []

    def check(what, old_v, new_v, tol):
        if old_v == new_v:
            return
        line = "%-44s %14s -> %-14s" % (what, old_v, new_v)
        if grew(old_v, new_v, tol):
            regressions.append(line)
        else:
            improvements.append(line)

    empty_ledger = {"total_rounds": 0, "total_messages": 0, "breakdown": []}
    old_led = old["ledger"] or empty_ledger
    new_led = new["ledger"] or empty_ledger
    check("ledger.total_rounds", old_led["total_rounds"],
          new_led["total_rounds"], rounds_tol)
    check("ledger.total_messages", old_led["total_messages"],
          new_led["total_messages"], messages_tol)
    old_rows = {(r["label"], r["kind"]): r for r in old_led["breakdown"]}
    new_rows = {(r["label"], r["kind"]): r for r in new_led["breakdown"]}
    for key in sorted(set(old_rows) | set(new_rows)):
        label = "phase %s [%s]" % key
        o = old_rows.get(key, {"rounds": 0, "messages": 0})
        n = new_rows.get(key, {"rounds": 0, "messages": 0})
        check(label + " rounds", o["rounds"], n["rounds"], rounds_tol)
        check(label + " messages", o["messages"], n["messages"], messages_tol)
    for section, tol in (("counters", messages_tol), ("gauges", messages_tol)):
        old_t = old["metrics"][section]
        new_t = new["metrics"][section]
        for name in sorted(set(old_t) | set(new_t)):
            check("%s %s" % (section[:-1], name), old_t.get(name, 0),
                  new_t.get(name, 0), tol)

    if improvements:
        print("improved / shrunk:")
        for line in improvements:
            print("  " + line)
    if regressions:
        print("REGRESSIONS (beyond tolerance):")
        for line in regressions:
            print("  " + line)
        return 1
    if not improvements:
        print("reports are identical on all compared dimensions")
    return 0


# ---- main ----------------------------------------------------------------

def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    mode = argv[1]
    if mode == "--validate":
        if len(argv) < 3:
            print("usage: trace_report.py --validate REPORT [REPORT ...]",
                  file=sys.stderr)
            return 2
        for path in argv[2:]:
            validate(load(path), path)
            print("%s: valid dcl-run-report v1" % path)
        return 0
    if mode == "--summary":
        if len(argv) != 3:
            print("usage: trace_report.py --summary REPORT", file=sys.stderr)
            return 2
        report = load(argv[2])
        validate(report, argv[2])
        render_summary(report)
        return 0
    if mode == "--diff":
        args = argv[2:]
        rounds_tol = 0.0
        messages_tol = 0.0
        paths = []
        i = 0
        while i < len(args):
            if args[i] == "--rounds-tolerance":
                rounds_tol = float(args[i + 1])
                i += 2
            elif args[i] == "--messages-tolerance":
                messages_tol = float(args[i + 1])
                i += 2
            else:
                paths.append(args[i])
                i += 1
        if len(paths) != 2:
            print("usage: trace_report.py --diff OLD NEW"
                  " [--rounds-tolerance PCT] [--messages-tolerance PCT]",
                  file=sys.stderr)
            return 2
        old = load(paths[0])
        new = load(paths[1])
        validate(old, paths[0])
        validate(new, paths[1])
        return diff(old, new, rounds_tol, messages_tol)
    print("trace_report: unknown mode '%s'" % mode, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
