#!/usr/bin/env python3
"""polcabench: host-time benchmark of the polcasim library.

    python3 polcabench/run.py --workload row_day --seed 42 --seconds 30 --trace 0

Builds the benchmark driver from source (Release, into
.bench_build/polcabench), then runs the workload in fresh driver
processes, one per repetition, until --seconds have passed.  Every
repetition's run directories go through the correctness gate.  The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over
the repetitions); --trace 1 makes one traced run and reports the
per-layer metrics.  Every result, with its provenance and raw
repetitions, is also appended to .bench_build/polcabench-work/results.jsonl,
which compare.py reads.  See polcabench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "polcabench"
BINARY = BUILD / "polcabench"
WORK = ROOT / ".bench_build" / "polcabench-work"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("row_day", "site_minute", "sweep_branch")
DEFAULT_SEED = 42
# Every run must end within 180 s; stop starting driver processes
# after this much time has passed.
DEADLINE_S = 170.0
LEVELS = ("rack", "row", "site")


class BenchError(Exception):
    """A failure that makes the run invalid (no result is printed)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def metric_specs():
    """End-to-end and per-layer metric specs from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


# ---------------------------------------------------------------- build

def build():
    """Configure and build the driver; a no-op when it is up to date."""
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD.parent / "polcabench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "polcabench"])
    with open(build_log, "w") as out:
        for step in steps:
            code = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode
            if code != 0:
                tail = build_log.read_text().splitlines()[-20:]
                raise BenchError("build failed (%s):\n%s"
                                 % (" ".join(step), "\n".join(tail)))


def driver(args, timeout):
    """Run the driver once and parse the JSON object it prints."""
    if timeout <= 1:
        raise BenchError("out of time before: " + " ".join(args))
    try:
        proc = subprocess.run([str(BINARY)] + args, capture_output=True,
                              text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError("driver timed out: " + " ".join(args))
    if proc.returncode != 0:
        raise BenchError("driver failed (%d): %s\n%s"
                         % (proc.returncode, " ".join(args),
                            proc.stderr.strip()[-2000:]))
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError("driver printed no result: " + " ".join(args))


# ----------------------------------------------------------- provenance

def provenance(info, load):
    commit = "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
        lines = proc.stdout.split()
        # Only this checkout's own repository counts, not an enclosing one.
        if proc.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    nproc = os.cpu_count() or 1
    return {
        "commit": commit,
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "nproc": nproc,
        "cpu_model": cpu,
        "load1_before": load,
        # Half the cores busy with other work before the run starts.
        "started_under_load": load >= nproc / 2.0,
    }


# ------------------------------------------------------- correctness gate

def digest_tree(path):
    """One digest over every CSV artifact under a repetition's output
    (run directories and sweep CSVs), keyed by relative path."""
    h = hashlib.sha256()
    for f in sorted(p for p in Path(path).rglob("*.csv") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def check_domains(path):
    """domains.csv invariants: each non-leaf level holds exactly the
    servers of its children, and the site's mean power is the sum of
    its rows' (to the file's printed precision)."""
    problems = []
    for f in sorted(Path(path).rglob("domains.csv")):
        lines = f.read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        by_path = {r["path"]: r for r in rows}
        for r in rows:
            children = [c for c in rows if c["path"].rsplit(".", 1)[0]
                        == r["path"] and c["path"] != r["path"]]
            if children and sum(int(c["servers"]) for c in children) \
                    != int(r["servers"]):
                problems.append("%s: %s servers != sum of children"
                                % (f, r["path"]))
        site = by_path.get("site")
        row_levels = [r for r in rows if r["level"] == "row"]
        if site and row_levels:
            total = sum(float(r["mean_watts"]) for r in row_levels)
            tolerance = 1e-6 * len(row_levels) + 1e-9 * abs(total)
            if abs(total - float(site["mean_watts"])) > tolerance:
                problems.append("%s: site mean power %s != sum of rows %r"
                                % (f, site["mean_watts"], total))
    return problems


def recorded_digest(workload, tiny):
    if tiny or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def gate(reps, workload, seed, tiny):
    """Mark every repetition's failed runs: the driver's in-memory
    checks, the domains.csv invariants, agreement between repetitions,
    and, at the default seed, the digest recorded in digests.json."""
    digests = [r["digest"] for r in reps]
    expected = recorded_digest(workload, tiny) if seed == DEFAULT_SEED \
        else None
    if expected is None:
        expected = max(set(digests), key=digests.count)
    for r in reps:
        own_checks(r, expected)


def own_checks(r, expected):
    """Gate a repetition on its own checks and, when `expected` is
    given, on its digest matching it."""
    r["gate_problems"] = list(r["problems"]) + r.pop("domain_problems")
    failed = r["failed_runs"]
    if expected is not None and r["digest"] != expected:
        r["gate_problems"].append("artifact digest %s != expected %s"
                                  % (r["digest"][:16], expected[:16]))
        failed = r["runs"]
    elif r["gate_problems"]:
        failed = max(failed, 1)
    r["failed_gate"] = failed


def rep_and_check(workload, seed, tiny, out, extra, timeout):
    shutil.rmtree(out, ignore_errors=True)
    args = ["run", "--workload", workload, "--seed", str(seed),
            "--root", str(ROOT), "--out", str(out)] + extra
    if tiny:
        args.append("--tiny")
    r = driver(args, timeout)
    r["digest"] = digest_tree(out)
    r["domain_problems"] = check_domains(out)
    return r


# ------------------------------------------------------------- the runs

def setup_time(reps):
    """Median over repetitions of each repetition's fastest set-up.
    Set-up is deterministic user time, and the shared host only ever
    adds to it, in slow phases that can fill a whole window; the
    fastest of a process's samples is its own cost."""
    return statistics.median([min(r["setup_s"]) for r in reps])


def end_to_end(reps):
    median = statistics.median
    setup = setup_time(reps)
    attempted = sum(r["runs"] for r in reps)
    failed = sum(r["failed_gate"] for r in reps)
    return {
        "wall_s": median([r["wall_s"] for r in reps]),
        "setup_s": setup,
        "sim_s_per_wall_s": median([r["sim_s"] / (r["wall_s"] - setup)
                                    for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "pass_frac": 1.0 - failed / attempted,
    }


def run_untraced(workload, seed, seconds, tiny, started):
    reps = []
    out = WORK / workload / "rep"
    measure_start = time.monotonic()
    while True:
        timeout = DEADLINE_S - (time.monotonic() - started)
        reps.append(rep_and_check(workload, seed, tiny, out, [], timeout))
        # Start another repetition only if it is likely to finish
        # within --seconds; the first one always runs.
        elapsed = time.monotonic() - measure_start
        if elapsed + 0.5 * elapsed / len(reps) >= seconds:
            break
    gate(reps, workload, seed, tiny)
    return reps, end_to_end(reps)


def run_traced(workload, seed, tiny, started):
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d" % (workload, seed)

    def remaining():
        return DEADLINE_S - (time.monotonic() - started)

    out = WORK / workload / "rep"
    # Counting the sweep's baseline events replays them after the
    # timed part, so it does not touch this repetition's times.
    base = rep_and_check(workload, seed, tiny, out, ["--count-events"],
                         remaining())
    gate([base], workload, seed, tiny)
    traced = rep_and_check(
        workload, seed, tiny, WORK / workload / "traced",
        ["--traced", "--spans", str(traces / (stem + ".run.spans.json"))],
        remaining())
    # The traced repetition adds interval-stats events, so its
    # artifacts legitimately differ: only its own checks count.
    own_checks(traced, None)
    reps = [base, traced]
    probe_args = ["probe", "--workload", workload, "--seed", str(seed),
                  "--root", str(ROOT),
                  "--spans", str(traces / (stem + ".probe.spans.json"))]
    if tiny:
        probe_args.append("--tiny")
    probe = driver(probe_args, remaining())

    setup = setup_time([base])
    simulate = base["wall_s"] - setup
    layer = {
        "sim.events": base["events"],
        "sim.host_us_per_event": simulate / base["events"] * 1e6,
        "obs.write_s": base["write_s"],
        "obs.sink_overhead": traced["wall_s"] / base["wall_s"] - 1.0,
        "config.load_ms": base["load_s"] * 1e3,
        "core.branch_speedup": 0.0,
        "core.parallel_eff": 0.0,
    }
    # The probe also reports context (manager counts, interval, queue
    # depth) that only feeds the derived metrics below.
    layer.update(probe)
    samples = {level: probe["telemetry.managers." + level]
               * base["stepped_s"]
               / probe["telemetry.interval_s"] for level in LEVELS}
    layer["telemetry.samples"] = sum(samples.values())
    layer["telemetry.est_share"] = sum(
        samples[level] * probe["telemetry.read_us." + level] * 1e-6
        for level in LEVELS) / simulate

    if workload == "sweep_branch":
        full = rep_and_check(workload, seed, tiny, WORK / workload / "full",
                             ["--branch", "0"], remaining())
        serial = rep_and_check(workload, seed, tiny,
                               WORK / workload / "serial",
                               ["--jobs", "1"], remaining())
        for r in (full, serial):
            # Branching and parallelism must not change any artifact.
            own_checks(r, base["digest"])
        reps += [full, serial]
        layer["core.branch_speedup"] = full["wall_s"] / base["wall_s"]
        layer["core.parallel_eff"] = serial["wall_s"] / (
            base["jobs"] * base["wall_s"])
    log("spans: %s" % ", ".join(str(p) for p in
                                sorted(traces.glob(stem + ".*.json"))))
    return reps, layer


def result_line(reps, values, specs):
    attempted = sum(r["runs"] for r in reps)
    failed = sum(r["failed_gate"] for r in reps)
    metrics = {}
    for spec in specs:
        if spec["name"] not in values:
            raise BenchError("metric %s was not measured" % spec["name"])
        metrics[spec["name"]] = {"value": values[spec["name"]],
                                 "unit": spec["unit"]}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def bench(workload, seed, seconds, trace, tiny=False):
    """Run one benchmark invocation; returns (result, record)."""
    end_specs, layer_specs = metric_specs()
    # Read before the build, whose own load would otherwise be flagged.
    load_before = os.getloadavg()[0]
    build()
    # The 180 s budget of a run starts after the (first-run) build.
    started = time.monotonic()
    info = driver(["info"], 60)
    prov = provenance(info, load_before)
    if not info["optimized"] or info["sanitized"]:
        raise BenchError("refusing to measure an unoptimised or sanitizer "
                         "build (%s, flags '%s')"
                         % (info["build_type"], info["cxx_flags"]))
    if prov["started_under_load"]:
        log("warning: started under load (1-min load %.2f on %d CPUs)"
            % (prov["load1_before"], prov["nproc"]))
    if trace:
        reps, values = run_traced(workload, seed, tiny, started)
        result = result_line(reps, values, layer_specs)
    else:
        reps, values = run_untraced(workload, seed, seconds, tiny, started)
        result = result_line(reps, values, end_specs)
    prov["load1_after"] = os.getloadavg()[0]
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "tiny": tiny, "provenance": prov,
              "reps": reps, "result": result}
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test horizons (minutes, not days)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        result, record = bench(args.workload, args.seed, args.seconds,
                               args.trace, args.tiny)
    except BenchError as e:
        log("polcabench: %s" % e)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "results.jsonl", "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    prov = record["provenance"]
    print("provenance: " + json.dumps(prov, sort_keys=True))
    verdicts = dict.fromkeys(v for r in record["reps"] for v in r["slo"])
    for verdict in verdicts:
        print("slo (reported, not asserted): " + verdict)
    for r in record["reps"]:
        for problem in r["gate_problems"]:
            print("gate: " + problem)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
