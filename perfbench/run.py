#!/usr/bin/env python3
"""Host wall-clock benchmark of the CRK-HACC reproduction.

Usage, from the repository root:

    python3 perfbench/run.py --workload hydro-fast --seed 1 --seconds 20 --trace 0

Builds the `perfbench` package (release, into `$CARGO_TARGET_DIR`, by
default `.bench_build`), runs one workload in its own process, and
prints: a human-readable summary, the full result record as one JSON
line prefixed `record: ` (metrics, sample counts, checks, provenance),
and as the last line the result object
`{"correct", "attempted", "failed", "metrics"}`. It exits non-zero when
any check fails. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("hydro-fast", "hydro-metered", "ranks8")
# The whole command must finish within 180 s once built.
RUN_TIMEOUT_S = 170
# Sources whose content identifies the code under test.
SOURCE_GLOBS = ("Cargo.toml", "Cargo.lock", "crates/**/*", "shims/**/*", "perfbench/**/*")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    return target / "release" / "perfbench"


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    h = hashlib.sha256()
    files = sorted({p for g in SOURCE_GLOBS for p in ROOT.glob(g) if p.is_file()})
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def provenance():
    return {
        # Only the checkout's own repository: git would otherwise search
        # the parent directories.
        "git_rev": (command_output(["git", "rev-parse", "HEAD"])
                    if (ROOT / ".git").exists() else "unknown"),
        "source_digest": source_digest(),
        "rustc": command_output(["rustc", "--version"]),
        "nproc": len(os.sched_getaffinity(0)),
    }


def expected_metrics(traced):
    """The metric names BENCHMARK.json declares for this mode."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def ledger_check(record, prov):
    """Digests and modeled seconds must repeat across runs of the same code
    and seed; the two hydro workloads share one trajectory per seed."""
    problem = "ranks8" if record["workload"] == "ranks8" else "hydro"
    key = f'{prov["source_digest"]}:{problem}:{record["seed"]}'
    entry = {"digest": record["digest"], "modeled_ref_s": record["modeled_ref_s"]}
    path = OUT_DIR / "ledger.json"
    try:
        ledger = json.loads(path.read_text())
    except (OSError, ValueError):
        ledger = {}
    previous = ledger.get(key)
    if previous is None:
        ledger[key] = entry
        OUT_DIR.mkdir(exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        tmp.replace(path)
        return True, f"first run of {problem} seed {record['seed']} on this code"
    ok = previous == entry
    return ok, f"{problem} seed {record['seed']}: {entry} vs earlier {previous}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 120:
        fail("--seconds must lie in [1, 120]")
    if not 0 <= args.seed < 2**64:
        fail("--seed must fit in 64 bits")

    binary = build()
    prov = provenance()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(OUT_DIR)]
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"workload exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("workload printed no record")
    record = json.loads(lines[-1])
    record["provenance"] = prov
    record["wall_s"] = time.monotonic() - started

    traced = bool(args.trace)
    expected = expected_metrics(traced)
    units = {k: v["unit"] for k, v in record["metrics"].items()}
    if units != expected:
        fail(f"metrics {units} do not match BENCHMARK.json {expected}")
    ok, detail = ledger_check(record, prov)
    record["checks"].append({"name": "repeats_across_runs", "ok": ok, "detail": detail})
    failed = record["failed"] if ok else record["attempted"]
    correct = failed == 0 and all(c["ok"] for c in record["checks"])
    record["step_fail_ratio"] = failed / max(record["attempted"], 1)

    print(f'perfbench {record["workload"]} seed={record["seed"]} trace={args.trace} '
          f'meter={record["meter"]} pool_threads={record["pool_threads"]} '
          f'nproc={prov["nproc"]} rev={prov["git_rev"]} source={prov["source_digest"]} '
          f'profile={record["build_profile"]!r} {prov["rustc"]}')
    for name, m in record["metrics"].items():
        print(f'  {name:32s} {m["value"]:>16.6g} {m["unit"]}')
    print(f'  {"step_fail_ratio":32s} {record["step_fail_ratio"]:>16.6g} ratio '
          f'({failed} of {record["attempted"]} steps)')
    print("  samples: " + ", ".join(f"{k}={v}" for k, v in record["samples"].items()))
    for c in record["checks"]:
        print(f'  check {c["name"]}: {"ok" if c["ok"] else "FAILED"} - {c["detail"]}')
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": record["metrics"],
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
