#!/usr/bin/env python3
"""End-to-end sweep benchmark: builds bench_e2e, runs one workload, checks it.

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the C++ driver from source into
$CARGO_TARGET_DIR/bench_e2e (default .bench_build/bench_e2e), runs it, checks
the sweep document against the digest recorded in digests.json for
(spec, seed), and prints one JSON object as the last line of stdout: the
end-to-end metrics with --trace 0, the per-layer ledger with --trace 1.
Every run also self-tests the harness: a sweep document with one Pareto value
changed must fail the digest check, and a metric entry missing its unit or
its `better` field must fail the schema check. See NOTES.md.
"""

import argparse
import copy
import fcntl
import hashlib
import json
import os
import re
import shutil
import subprocess
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Which recorded spec each workload's sweep document is (the two sweep_*
# workloads run one spec, so they must share its digest).
SPEC_OF_WORKLOAD = {
    "sweep_serial": "canonical_m4",
    "sweep_parallel_store": "canonical_m4",
    "pareto_warm_m16": "dense_m16",
}

# Process launches whose set-up times give setup_s (median); the last one is
# the measured run itself. pareto_warm_m16's set-up characterizes 21 pairs
# at M = 16 (about 15 s on a loaded 4-core host), so it gets two: a third
# would put the driver's 70 runs close to their time budget.
SETUP_LAUNCHES = {
    "sweep_serial": 9,
    "sweep_parallel_store": 9,
    "pareto_warm_m16": 2,
}

# Deadline for the whole run; the contract allows 180 s.
RUN_DEADLINE_S = 170


class SchemaError(Exception):
    pass


def check_schema(bench):
    """Rejects a BENCHMARK.json whose workloads or metrics are malformed."""
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = set()
    for w in bench.get("workloads", []):
        if set(w) != {"name", "why"} or not name_re.match(str(w["name"])):
            raise SchemaError("bad workload entry: %r" % (w,))
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        entries = bench.get(section)
        if not isinstance(entries, list) or not entries:
            raise SchemaError("%s: missing or empty" % section)
        for m in entries:
            if not isinstance(m, dict) or set(m) != keys:
                raise SchemaError("%s: entry %r must have exactly %s"
                                  % (section, m, sorted(keys)))
            if not name_re.match(str(m["name"])) or m["name"] in names:
                raise SchemaError("%s: bad or repeated name %r" % (section, m["name"]))
            names.add(m["name"])
            if not isinstance(m["unit"], str) or not unit_re.match(m["unit"]):
                raise SchemaError("%s: bad unit for %s" % (section, m["name"]))
            if m["better"] not in ("lower", "higher"):
                raise SchemaError("%s: bad better for %s" % (section, m["name"]))
            if section == "end_to_end" and not 0 < m["bound"] <= 0.25:
                raise SchemaError("%s: bad bound for %s" % (section, m["name"]))


def self_test_schema(bench):
    """The schema check must reject an entry that lost its unit or better."""
    for section, field in (("end_to_end", "unit"), ("end_to_end", "better"),
                           ("per_layer", "unit"), ("per_layer", "better")):
        broken = copy.deepcopy(bench)
        del broken[section][0][field]
        try:
            check_schema(broken)
        except SchemaError:
            continue
        raise SchemaError("schema check accepted a %s entry without %r"
                          % (section, field))


def sweep_digest(document):
    """sha256 of a sweep document with its one-line "meta" stamp dropped."""
    kept = [line for line in document.splitlines(True) if '"meta"' not in line]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def doctor(document):
    """The document with its first Pareto energy value changed."""
    match = re.search(r'"pareto": \[\{"theta": [^,]+, "energy": ([^,}]+)', document)
    if match is None:
        raise SchemaError("no Pareto value to doctor in the sweep document")
    value = float(match.group(1))
    return document[:match.start(1)] + repr(value * 1.5 + 1.0) + document[match.end(1):]


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the driver; serialized across concurrent runs."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "--target", "bench_e2e",
                        "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "bench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_schema(bench)
    self_test_schema(bench)
    if args.workload not in SPEC_OF_WORKLOAD or args.seed < 0:
        raise SchemaError("unknown workload %r or negative seed" % args.workload)
    with open(os.path.join(HERE, "digests.json")) as f:
        recorded = json.load(f)

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "bench_e2e")
    binary = build(build_dir)

    out_dir = os.path.join(build_dir, "out", "%s-%d-%d" % (args.workload, args.seed,
                                                          args.trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    deadline = time.monotonic() + RUN_DEADLINE_S

    def launch(setup_only):
        command = [binary, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out", out_dir, "--setup-only", "1" if setup_only else "0",
                   "--launched-ns", str(time.monotonic_ns())]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        return json.loads(proc.stdout.strip().splitlines()[-1])

    setups = []
    if not args.trace:
        setups = [launch(True)["setup_s"]
                  for _ in range(SETUP_LAUNCHES[args.workload] - 1)]
    raw = launch(False)
    setups.append(raw["metrics"]["setup_s"])
    raw["metrics"]["setup_s"] = statistics.median(setups)

    # Output check: the run's sweep document against the digest recorded for
    # (spec, seed). Seeds without a record are checked by the driver's own
    # invariants (every sweep equal to the first, a from-scratch rebuild of
    # one pair, store read-back) but not against a fixed digest.
    with open(os.path.join(out_dir, "sweep_doc.json")) as f:
        document = f.read()
    digest = sweep_digest(document)
    spec = SPEC_OF_WORKLOAD[args.workload]
    expected = recorded.get(spec, {}).get(str(args.seed))
    log("sweep digest %s %s seed %d (%s)" % (
        digest, spec, args.seed,
        "no record" if expected is None else
        "matches record" if digest == expected else "MISMATCH, recorded " + expected))
    digest_failed = expected is not None and digest != expected
    if sweep_digest(doctor(document)) == (expected or digest):
        raise SchemaError("a doctored sweep document passed the digest check")

    failed = raw["threw"] + raw["failed_checks"] + (raw["sweeps"] if digest_failed else 0)
    attempted = raw["attempted"]
    values = dict(raw["metrics"])
    values["error_rate"] = failed / attempted
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in bench[section]:
        if m["name"] not in values:
            raise SchemaError("driver did not report %s" % m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = failed == 0 and not raw["failures"] and raw["replay_identical"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (SchemaError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log("error: %s" % error)
        sys.exit(1)
