#!/usr/bin/env python3
"""Build and run the qkdpp benchmark.

    python3 perfbench/run.py --workload metro-replay --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --quick       # every workload at a tiny size + checker self-test

Run from the repository root. The benchmark binary is built from source
(perfbench/CMakeLists.txt pulls in the repository's own library target) into
$CARGO_TARGET_DIR, or .bench_build when that is unset. Each workload runs in
its own process: the LDPC code cache and peak RSS are process-wide.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer metrics.
Everything else the run measured (the per-layer table, tracing overhead, the
host and build record) is printed before that line and written to
.bench_out/result-<workload>-<seed>-trace<t>.json; traced runs also write
their spans to .bench_out/spans-<workload>-<seed>.tsv.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("metro-replay", "fleet-session", "etsi-serve")
# setup_s is the median over this many set-ups, each in a fresh process (the
# LDPC code cache is process-wide, so a cold set-up needs a new process).
SETUP_REPEATS = 3
RUN_TIMEOUT_S = 170

# Declared per-layer metrics a workload does not exercise, reported as 0.
NOT_EXERCISED = {
    "metro-replay": {
        "sim.fleet_share", "service.worker_busy_share", "service.steals",
        "protocol.messages_per_block", "protocol.bytes_per_block",
        "protocol.retransmits", "protocol.retry_timeouts",
        "protocol.channel_aborts", "auth.auth_aborts",
        "network.relay_draws", "network.reroutes", "network.relayed_bits",
    },
    "fleet-session": {
        "protocol.sift_share", "protocol.estimate_share",
        "reconcile.plan_share", "reconcile.decode_share",
        "privacy.verify_share", "privacy.amplify_share",
        "engine.unattributed_share", "reconcile.frames_per_block",
        "reconcile.frames_ok_ratio", "reconcile.iterations_per_frame",
        "reconcile.early_exit_ratio", "reconcile.leak_bits_per_block",
        "reconcile.efficiency",
        "network.relay_draws", "network.reroutes", "network.relayed_bits",
    },
    "etsi-serve": {
        "sim.fleet_share", "service.worker_busy_share", "service.steals",
        "protocol.sift_share", "protocol.estimate_share",
        "reconcile.plan_share", "reconcile.decode_share",
        "privacy.verify_share", "privacy.amplify_share",
        "engine.unattributed_share", "reconcile.frames_per_block",
        "reconcile.frames_ok_ratio", "reconcile.iterations_per_frame",
        "reconcile.early_exit_ratio", "reconcile.leak_bits_per_block",
        "reconcile.efficiency",
        "protocol.messages_per_block", "protocol.bytes_per_block",
        "protocol.retransmits", "protocol.retry_timeouts",
        "protocol.channel_aborts", "auth.auth_aborts",
    },
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure and build the benchmark binary; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the qkdpp sources (CMakeLists.txt, src/) are not next to "
             "perfbench/; run from a full checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "qkdpp_perfbench", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail("build failed (" + " ".join(step) + ")")
    return os.path.join(out, "qkdpp_perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()


def run_binary(binary, args):
    """Runs the benchmark binary; returns (stdout lines, parsed last line)."""
    proc = subprocess.run([binary] + args, cwd=ROOT, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark binary failed (exit %d): %s"
             % (proc.returncode, " ".join(args)))
    return lines[:-1], json.loads(lines[-1])


def check_build_record(host):
    flags = host.get("flags", "")
    if "-fsanitize" in flags or not any(o in flags.split()
                                        for o in ("-O1", "-O2", "-O3", "-Os")):
        fail("refusing to measure a build with flags '%s'" % flags)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(binary, args, spec):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out-dir", out_dir]
    start = time.monotonic()
    table, main = run_binary(
        binary, common + ["--seconds", str(args.seconds),
                          "--trace", str(args.trace)])
    check_build_record(main["host"])
    for line in table:
        print(line)
    violations = list(main["violations"])

    setups = [main["setup_s"]]
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            _, extra = run_binary(binary, common + ["--setup-only"])
            violations += extra["violations"]
            setups.append(extra["setup_s"])

    metrics = {}
    if args.trace:
        measured = main["per_layer"]
        skipped = NOT_EXERCISED[args.workload]
        for entry in spec["per_layer"]:
            name = entry["name"]
            if name in measured:
                metrics[name] = measured[name]
            elif name in skipped:
                metrics[name] = {"value": 0, "unit": entry["unit"]}
            else:
                violations.append("per-layer metric %s was not measured" % name)
    else:
        measured = dict(main["end_to_end"])
        measured["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        measured["peak_rss_mb"] = {"value": main["peak_rss_mb"], "unit": "MB"}
        for entry in spec["end_to_end"]:
            name = entry["name"]
            if name in measured:
                metrics[name] = measured[name]
            else:
                violations.append("end-to-end metric %s was not measured" % name)

    for v in violations:
        print("VIOLATION: " + v)
    result = {
        "correct": not violations,
        "attempted": max(1, int(main["attempted"])),
        "failed": int(main["failed"]),
        "metrics": metrics,
    }
    record = dict(result)
    record.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "setup_s_samples": setups, "violations": violations,
        "host": dict(main["host"], source=source_id()),
        "all_end_to_end": main["end_to_end"], "all_per_layer": main["per_layer"],
        "wall_s": time.monotonic() - start,
    })
    path = os.path.join(out_dir, "result-%s-%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print("# host " + json.dumps(record["host"], sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def run_quick(binary):
    """Every workload at a tiny size plus the checker self-test."""
    status = subprocess.call([binary, "--self-test"], cwd=ROOT)
    ok = status == 0
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            _, result = run_binary(binary, [
                "--workload", workload, "--seed", "1", "--seconds", "0.1",
                "--trace", trace, "--quick", "--out-dir", out_dir])
            good = not result["violations"] and result["attempted"] > 0
            print("quick %-14s trace %s: %s" % (workload, trace,
                                               "ok" if good else "FAILED"))
            for v in result["violations"]:
                print("  VIOLATION: " + v)
            ok = ok and good
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny run of every workload, for the "
                             "benchmark's own tests")
    args = parser.parse_args()
    if not args.quick and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    binary = build()
    if args.quick:
        sys.exit(run_quick(binary))
    sys.exit(run_workload(binary, args, load_spec()))


if __name__ == "__main__":
    main()
