#!/usr/bin/env python3
"""CI perf-regression gate for the deterministic cost-model sweeps.

Three gates share this file:

* The **rank-sweep gate** compares the multi-rank sweep
  (``BENCH_ranks.json``, produced by ``cargo run --release -p
  hacc-bench --bin figures -- ranks --json ...`` on the pinned small
  problem) against the committed baseline ``tests/perf_baseline.json``.

* The **explaining observe gate** (``--observe BENCH_observe.json``)
  compares the health report produced by ``figures -- health`` against
  ``tests/observe_baseline.json`` and, on violation, *names the
  kernel, phase, or rank that moved* and by how much: kernel metrics
  are attributed to their kernel, phase metrics to the (step, rank)
  with the largest movement in the critical-path attribution, comm
  metrics to the alpha-beta link model. Wall-clock metrics (``sched.*``)
  are recorded in the report but never gated — they belong to the
  runner, not to the code under test.

* The **tune gate** (``--tune BENCH_autotune.json``) compares the
  autotune sweep produced by ``figures -- autotune`` against the
  committed ``tests/tune_baseline.json`` and, on violation, *names the
  (arch, kernel, knob)* that moved: a winner whose variant, sub-group,
  work-group, GRF mode, or launch bounds differ from the baseline means
  the committed tuning cache is stale; a winner slower than the
  hand-picked table means the tuner would pin a suboptimal choice.

Everything gated here is *modeled* — node seconds come from each
architecture's cost model and the interconnect's alpha-beta link model,
bytes from the wire format, overlap from the post/interior/wait/boundary
split — so the numbers are bit-reproducible across machines and the
gate can be tight without flaking. Host wall-clock never enters: the
strong-scaling sweep (``BENCH_scaling.json``) is only checked for its
bitwise-equivalence flags (every mode x thread row against the metered
serial digest) and for the fast path not having regressed below the
metered interpreter.

On any failure the gate prints a diff table sorted largest-|delta|
first (metric, baseline, current, %delta) so the top regression is the
first line you read.

Tolerance is +/-25% relative per metric (override with --tolerance).
Regenerate the baselines after an intentional model change with:

    cargo run --release -p hacc-bench --bin figures -- ranks --json BENCH_ranks.json
    python3 tests/perf_gate.py --write-baseline tests/perf_baseline.json --ranks BENCH_ranks.json
    cargo run --release -p hacc-bench --bin figures -- health --json BENCH_observe.json
    python3 tests/perf_gate.py --observe BENCH_observe.json \\
        --write-observe-baseline tests/observe_baseline.json
    cargo run --release -p hacc-bench --bin figures -- autotune --seeds 1 \\
        --json BENCH_autotune.json
    python3 tests/perf_gate.py --tune BENCH_autotune.json \\
        --write-tune-baseline tests/tune_baseline.json
"""

import argparse
import json
import sys


def load_json(path, what):
    """Every input this gate reads comes through here, so a missing or
    corrupt file is a one-line usage error, not a stack trace."""
    if path is None:
        sys.exit(f"perf_gate: no path given for the {what} (see --help)")
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        sys.exit(f"perf_gate: {what} not found at {path!r} — generate it "
                 f"first (the module docstring lists the commands)")
    except json.JSONDecodeError as e:
        sys.exit(f"perf_gate: {what} at {path!r} is not valid JSON: {e}")

# Metrics gated per (arch, mode, ranks) row. All deterministic.
METRICS = ("node_seconds", "speedup", "overlap_fraction", "exchange_bytes")

# Metric prefixes carrying host wall-clock: present in the report for
# humans, never gated. Keep in sync with `health::VOLATILE_PREFIXES`
# (a hacc-bench unit test compares the two).
VOLATILE_PREFIXES = ("sched.", "task.ready_latency_s", "task.busy_s", "task.wall_s", "task.queue_depth.max")

# Health-report fields that pin the problem configuration.
OBSERVE_PIN = ("schema", "n_particles", "ranks", "steps", "seed")

PHASE_FIELDS = {
    "phase.migrate": "migrate_seconds",
    "phase.interior": "interior_seconds",
    "phase.halo": "halo_seconds",
    "phase.boundary": "boundary_seconds",
}


def key(rec):
    return f"{rec['arch']}/{rec['mode']}/{rec['ranks']}"


def reduce_sweep(sweep):
    """Folds a BENCH_ranks.json into the baseline's record map."""
    return {
        key(r): {m: r[m] for m in METRICS}
        for r in sweep["records"]
    }


def write_baseline(path, sweep, tolerance):
    baseline = {
        "comment": "Deterministic cost-model metrics from the pinned "
                   "`figures -- ranks` run; regenerate via perf_gate.py "
                   "--write-baseline after intentional model changes.",
        "pinned": {
            "n_base": sweep["n_base"],
            "steps": sweep["steps"],
            "seed": sweep["seed"],
        },
        "tolerance": tolerance,
        "records": reduce_sweep(sweep),
    }
    with open(path, "w") as f:
        json.dump(baseline, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote baseline with {len(baseline['records'])} records to {path}")


def check_pin(sweep, baseline):
    """The gate is meaningless if the problem changed out from under it."""
    pin = baseline["pinned"]
    errors = []
    for field in ("n_base", "steps", "seed"):
        if sweep.get(field) != pin[field]:
            errors.append(
                f"pinned problem mismatch: {field} = {sweep.get(field)!r}, "
                f"baseline expects {pin[field]!r} — run the gate on the "
                f"pinned configuration or regenerate the baseline"
            )
    return errors


def print_sorted_diffs(rows, title, top=None):
    """Diff table sorted largest-|delta| first: the regression you came
    to find is the first data line."""
    def magnitude(row):
        rel = row[4]
        return abs(rel) if isinstance(rel, float) else float("inf")

    ordered = sorted(rows, key=magnitude, reverse=True)
    if top is not None:
        ordered = ordered[:top]
    if not ordered:
        return
    print(f"\n{title}")
    widths = (22, 30, 14, 14, 9)
    header = ("where", "metric", "baseline", "current", "delta")
    print("".join(h.ljust(w) for h, w in zip(header, widths)) + "status")
    for where, metric, base, cur, rel, ok in ordered:
        delta = f"{rel:+.1%}" if isinstance(rel, float) else str(rel)
        cells = (where, metric, f"{base:.6g}", f"{cur:.6g}", delta)
        print("".join(c.ljust(w) for c, w in zip(cells, widths))
              + ("ok" if ok else "FAIL"))


def gate(sweep, baseline, tolerance):
    current = reduce_sweep(sweep)
    expected = baseline["records"]
    rows = []       # (config, metric, base, cur, rel-or-str, ok)
    failures = []

    for cfg in sorted(expected):
        if cfg not in current:
            failures.append(f"{cfg}: configuration missing from the sweep")
            continue
        for metric in METRICS:
            base = expected[cfg][metric]
            cur = current[cfg][metric]
            if base == 0:
                # 1-rank rows: no traffic, no overlap. Exact.
                ok = cur == 0
                rel = "exact" if ok else f"{cur:g} != 0"
            else:
                rel = (cur - base) / base
                ok = abs(rel) <= tolerance
            rows.append((cfg, metric, base, cur, rel, ok))
            if not ok:
                delta = f"{rel:+.1%}" if isinstance(rel, float) else rel
                failures.append(
                    f"{cfg} {metric}: baseline {base:g}, current {cur:g} "
                    f"({delta}, tolerance +/-{tolerance:.0%})"
                )

    extra = sorted(set(current) - set(expected))
    if extra:
        print(f"note: {len(extra)} configurations not in the baseline "
              f"(new rank counts/architectures?): {', '.join(extra)}")

    widths = (22, 18, 14, 14, 9)
    header = ("config", "metric", "baseline", "current", "delta")
    print("".join(h.ljust(w) for h, w in zip(header, widths)) + "status")
    for cfg, metric, base, cur, rel, ok in rows:
        delta = f"{rel:+.1%}" if isinstance(rel, float) else str(rel)
        cells = (cfg, metric, f"{base:.6g}", f"{cur:.6g}", delta)
        line = "".join(c.ljust(w) for c, w in zip(cells, widths))
        print(line + ("ok" if ok else "FAIL"))
    if failures:
        print_sorted_diffs([r for r in rows if not r[5]],
                           "rank-sweep violations, largest delta first:")
    return failures


# ---------------------------------------------------------- observe gate

def is_volatile(name):
    return any(name.startswith(p) for p in VOLATILE_PREFIXES)


def metric_sums(arch_slice):
    """{name: sum} over an ArchHealth's gateable metrics."""
    return {m["name"]: m["sum"] for m in arch_slice["metrics"]
            if not is_volatile(m["name"])}


def explain(cur_arch, base_arch, name):
    """Names the kernel, phase, or rank behind a moved metric."""
    if name.startswith("kernel."):
        return f"kernel {name.split('.')[1]} moved (per-launch cost estimate)"
    if name in PHASE_FIELDS:
        field = PHASE_FIELDS[name]
        best = None
        for sc, sb in zip(cur_arch.get("critical_paths", []),
                          base_arch.get("critical_paths", [])):
            for rc, rb in zip(sc["per_rank"], sb["per_rank"]):
                d = abs(rc[field] - rb[field])
                if best is None or d > best[0]:
                    best = (d, sc["step"], rc["rank"], rb[field], rc[field])
        if best and best[0] > 0:
            _, step, rank, b, c = best
            return (f"largest mover: rank {rank} at step {step}, "
                    f"{b:.4e}s -> {c:.4e}s")
        return "multi-rank phase moved uniformly across ranks"
    if name.startswith("comm."):
        return "transport layer (alpha-beta link model) moved"
    if name.startswith("multirank."):
        return "multi-rank engine accounting moved"
    return f"kernel timer {name} moved (bracket seconds)"


def critical_path_notes(cur, base):
    """Informational: where the cross-rank critical path moved."""
    notes = []
    for ca in cur["archs"]:
        ba = next((a for a in base["archs"] if a["arch"] == ca["arch"]), None)
        if ba is None:
            continue
        for sc, sb in zip(ca.get("critical_paths", []),
                          ba.get("critical_paths", [])):
            if sc["critical_rank"] != sb["critical_rank"]:
                notes.append(
                    f"{ca['arch']} step {sc['step']}: critical rank moved "
                    f"{sb['critical_rank']} -> {sc['critical_rank']}")
    return notes


def gate_observe(cur, base, tolerance, top):
    failures = [
        f"observe pin mismatch: {k} = {cur.get(k)!r}, "
        f"baseline has {base.get(k)!r}"
        for k in OBSERVE_PIN if cur.get(k) != base.get(k)
    ]
    rows = []       # (arch, metric, base, cur, rel-or-str, ok)
    for ca in cur["archs"]:
        ba = next((a for a in base["archs"] if a["arch"] == ca["arch"]), None)
        if ba is None:
            failures.append(
                f"{ca['arch']}: architecture missing from the observe baseline")
            continue
        cm, bm = metric_sums(ca), metric_sums(ba)
        for name in sorted(set(cm) | set(bm)):
            if name not in cm:
                failures.append(f"{ca['arch']} {name}: metric disappeared "
                                f"from the report")
                continue
            if name not in bm:
                print(f"note: {ca['arch']} {name}: new metric, not in the "
                      f"baseline (regenerate to start gating it)")
                continue
            b, c = bm[name], cm[name]
            if b == 0:
                ok = c == 0
                rel = "exact" if ok else f"{c:g} != 0"
            else:
                rel = (c - b) / b
                ok = abs(rel) <= tolerance
            rows.append((ca["arch"], name, b, c, rel, ok))
            if not ok:
                delta = f"{rel:+.1%}" if isinstance(rel, float) else rel
                failures.append(
                    f"{ca['arch']} {name}: baseline {b:g}, current {c:g} "
                    f"({delta}, tolerance +/-{tolerance:.0%}) — "
                    + explain(ca, ba, name))

    moved = [r for r in rows if isinstance(r[4], float) and r[4] != 0.0]
    if moved:
        print_sorted_diffs(moved, f"observe gate: top {top} movers "
                                  f"(gated at +/-{tolerance:.0%}):", top=top)
    else:
        print("observe gate: no gateable metric moved against the baseline")
    if failures:
        print_sorted_diffs([r for r in rows if not r[5]],
                           "observe violations, largest delta first:")
    for note in critical_path_notes(cur, base):
        print(f"note: {note}")
    checked = len(rows)
    print(f"observe gate: checked {checked} metrics across "
          f"{len(cur['archs'])} architectures")
    return failures


def write_observe_baseline(path, report):
    if report.get("schema") is None or not report.get("archs"):
        sys.exit("refusing to write an observe baseline from a report "
                 "with no schema/archs")
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    n = sum(len(a["metrics"]) for a in report["archs"])
    print(f"wrote observe baseline ({n} metrics, "
          f"{len(report['archs'])} architectures) to {path}")


# ------------------------------------------------------------- tune gate

# The knobs a winner is pinned on; a move in any of them names the
# stale entry.
TUNE_KNOBS = ("variant", "sg_size", "wg_size", "grf", "bounds")

# Autotune-report fields that pin the sweep configuration.
TUNE_PIN = ("kernel_digest", "full_space", "pp_floor")


def reduce_tune(report):
    """Folds a BENCH_autotune.json into the baseline's winner map."""
    winners = {}
    for arch in report["archs"]:
        for w in arch["winners"]:
            rec = {k: w[k] for k in TUNE_KNOBS}
            rec["modeled_seconds"] = w["modeled_seconds"]
            winners[f"{arch['arch']}/{w['kernel']}"] = rec
    return winners


def write_tune_baseline(path, report, tolerance):
    if not report.get("archs") or not report.get("kernel_digest"):
        sys.exit("refusing to write a tune baseline from a report with no "
                 "archs/kernel_digest")
    baseline = {
        "comment": "Per-kernel autotune winners from the pinned "
                   "`figures -- autotune` sweep; regenerate via perf_gate.py "
                   "--tune ... --write-tune-baseline after intentional "
                   "cost-model or search-space changes.",
        "pinned": {k: report[k] for k in TUNE_PIN},
        "tolerance": tolerance,
        "pp": report["tuned_pp"],
        "winners": reduce_tune(report),
    }
    with open(path, "w") as f:
        json.dump(baseline, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote tune baseline with {len(baseline['winners'])} winners "
          f"to {path}")


def gate_tune(report, baseline, tolerance):
    pin = baseline["pinned"]
    failures = [
        f"tune pin mismatch: {k} = {report.get(k)!r}, baseline expects "
        f"{pin[k]!r} — the kernel/variant set or search space changed; "
        f"regenerate tests/tune_baseline.json"
        for k in TUNE_PIN if report.get(k) != pin[k]
    ]
    current = reduce_tune(report)
    expected = baseline["winners"]
    rows = []       # (where, metric, base, cur, rel-or-str, ok)
    for where in sorted(expected):
        if where not in current:
            failures.append(f"{where}: winner missing from the sweep")
            continue
        b, c = expected[where], current[where]
        for knob in TUNE_KNOBS:
            if b[knob] != c[knob]:
                failures.append(
                    f"{where}: winner knob {knob} moved "
                    f"{b[knob]!r} -> {c[knob]!r} — the committed tune "
                    f"baseline is stale; regenerate it if intentional")
        base_s, cur_s = b["modeled_seconds"], c["modeled_seconds"]
        if base_s == 0:
            ok = cur_s == 0
            rel = "exact" if ok else f"{cur_s:g} != 0"
        else:
            rel = (cur_s - base_s) / base_s
            ok = abs(rel) <= tolerance
        rows.append((where, "modeled_seconds", base_s, cur_s, rel, ok))
        if not ok:
            delta = f"{rel:+.1%}" if isinstance(rel, float) else rel
            failures.append(
                f"{where} modeled_seconds: baseline {base_s:g}, current "
                f"{cur_s:g} ({delta}, tolerance +/-{tolerance:.0%})")
    extra = sorted(set(current) - set(expected))
    if extra:
        print(f"note: {len(extra)} winners not in the tune baseline "
              f"(new kernels/architectures?): {', '.join(extra)}")

    # Freshness of the sweep itself: winners must not lose to the
    # hand-picked table, and the tuned PP must clear the floor.
    for arch in report["archs"]:
        for w in arch["winners"]:
            if w["modeled_seconds"] > w["hand_seconds"] * (1 + 1e-9):
                failures.append(
                    f"{arch['arch']}/{w['kernel']}: tuned winner "
                    f"{w['choice']} ({w['modeled_seconds']:g} s) is slower "
                    f"than the hand-picked table ({w['hand_seconds']:g} s) "
                    f"— the cache would pin a suboptimal choice")
    for mode in sorted(report["tuned_pp"]):
        pp = report["tuned_pp"][mode]
        if pp < report["pp_floor"]:
            failures.append(
                f"tuned PP {pp:.4f} under {mode} metering is below the "
                f"floor {report['pp_floor']:.2f}")

    moved = [r for r in rows if isinstance(r[4], float) and r[4] != 0.0]
    if moved:
        print_sorted_diffs(moved, "tune gate: modeled-seconds movers "
                                  f"(gated at +/-{tolerance:.0%}):")
    else:
        print("tune gate: no winner's modeled seconds moved against the "
              "baseline")
    if failures:
        print_sorted_diffs([r for r in rows if not r[5]],
                           "tune violations, largest delta first:")
    print(f"tune gate: checked {len(rows)} winners across "
          f"{len(report['archs'])} architectures")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", default="tests/perf_baseline.json")
    ap.add_argument("--ranks", default="BENCH_ranks.json",
                    help="multi-rank sweep JSON to gate")
    ap.add_argument("--scaling", default=None,
                    help="optional scaling sweep JSON; checked for bitwise flags only")
    ap.add_argument("--observe", default=None,
                    help="health report JSON (figures -- health) to gate "
                         "with the explaining observe gate")
    ap.add_argument("--observe-baseline", default="tests/observe_baseline.json")
    ap.add_argument("--tune", default=None,
                    help="autotune report JSON (figures -- autotune) to gate "
                         "against the committed tune baseline")
    ap.add_argument("--tune-baseline", default="tests/tune_baseline.json")
    ap.add_argument("--write-tune-baseline", metavar="PATH", default=None,
                    help="write PATH from --tune instead of gating")
    ap.add_argument("--top", type=int, default=3,
                    help="movers shown in the observe gate's summary table")
    ap.add_argument("--tolerance", type=float, default=None,
                    help="relative tolerance (default: the baseline's, else 0.25)")
    ap.add_argument("--write-baseline", metavar="PATH", default=None,
                    help="write PATH from --ranks instead of gating")
    ap.add_argument("--write-observe-baseline", metavar="PATH", default=None,
                    help="write PATH from --observe instead of gating")
    args = ap.parse_args()

    if args.tune:
        report = load_json(args.tune, "autotune report (--tune)")
        if args.write_tune_baseline:
            write_tune_baseline(
                args.write_tune_baseline, report,
                args.tolerance if args.tolerance is not None else 0.25)
            return
        tune_base = load_json(args.tune_baseline,
                              "tune baseline (--tune-baseline)")
        tolerance = args.tolerance
        if tolerance is None:
            tolerance = tune_base.get("tolerance", 0.25)
        failures = gate_tune(report, tune_base, tolerance)
        if failures:
            print(f"\nPERF GATE (tune): {len(failures)} violation(s)",
                  file=sys.stderr)
            for f_ in failures:
                print(f"  - {f_}", file=sys.stderr)
            sys.exit(1)
        print("\nPERF GATE (tune): ok")
        return

    if args.observe:
        observe = load_json(args.observe, "health report (--observe)")
        if args.write_observe_baseline:
            write_observe_baseline(args.write_observe_baseline, observe)
            return
        observe_base = load_json(args.observe_baseline,
                                 "observe baseline (--observe-baseline)")
        tolerance = args.tolerance
        if tolerance is None:
            tolerance = 0.25
        failures = gate_observe(observe, observe_base, tolerance, args.top)
        if failures:
            print(f"\nPERF GATE (observe): {len(failures)} violation(s)",
                  file=sys.stderr)
            for f_ in failures:
                print(f"  - {f_}", file=sys.stderr)
            sys.exit(1)
        print("\nPERF GATE (observe): ok")
        return

    sweep = load_json(args.ranks, "rank sweep (--ranks)")

    failures = []
    diverged = [key(r) for r in sweep["records"] if not r["bit_identical"]]
    if diverged:
        failures.append(
            "rank sweep rows diverged from their 1-rank bits: " + ", ".join(diverged))

    if args.write_baseline:
        if failures:
            sys.exit("refusing to write a baseline from a diverged sweep:\n"
                     + "\n".join(failures))
        write_baseline(args.write_baseline, sweep,
                       args.tolerance if args.tolerance is not None else 0.25)
        return

    baseline = load_json(args.baseline, "rank baseline (--baseline)")
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = baseline.get("tolerance", 0.25)

    failures += check_pin(sweep, baseline)
    failures += gate(sweep, baseline, tolerance)

    if args.scaling:
        scaling = load_json(args.scaling, "scaling sweep (--scaling)")
        bad = [f"{r.get('mode', '?')}/{r['threads']}t"
               for r in scaling["records"] if not r["bit_identical"]]
        if bad:
            failures.append(f"scaling sweep diverged at {bad}")
        else:
            print(f"scaling sweep: all {len(scaling['records'])} (mode, thread) "
                  "rows bit-identical (wall times not gated)")
        fast = scaling.get("fast_speedup")
        if fast is not None and fast < 1.0:
            failures.append(
                f"fast execution mode slower than the metered interpreter: "
                f"{fast:.2f}x")

    if failures:
        print(f"\nPERF GATE: {len(failures)} violation(s)", file=sys.stderr)
        for f_ in failures:
            print(f"  - {f_}", file=sys.stderr)
        sys.exit(1)
    print("\nPERF GATE: ok")


if __name__ == "__main__":
    main()
