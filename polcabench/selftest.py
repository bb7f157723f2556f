#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 polcabench/selftest.py

1. Every workload runs with tiny horizons (--tiny), untraced and
   traced; each must print every metric BENCHMARK.json names, with its
   unit, and pass the correctness gate.
2. The gate must be able to fail: an artifact altered after a tiny run
   must change the digest and fail the repetition, and a domains.csv
   whose server counts no longer add up must fail the domains check.
3. A build reported as unoptimised or sanitized must be refused.

Exit status 0 when every check holds, 1 otherwise.
"""

import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

failures = []


def check(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def metrics_complete():
    end_specs, layer_specs = bench.metric_specs()
    for workload in bench.WORKLOADS:
        for trace, specs in ((0, end_specs), (1, layer_specs)):
            result, _ = bench.bench(workload, bench.DEFAULT_SEED, 0.0, trace,
                                    tiny=True)
            metrics = result["metrics"]
            missing = [s["name"] for s in specs if s["name"] not in metrics]
            wrong_unit = [s["name"] for s in specs if s["name"] in metrics
                          and metrics[s["name"]]["unit"] != s["unit"]]
            check(not missing and not wrong_unit,
                  "%s --trace %d emits every metric with its unit%s"
                  % (workload, trace,
                     "" if not missing and not wrong_unit else
                     " (missing %s, wrong unit %s)" % (missing, wrong_unit)))
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  "%s --trace %d passes the gate (%d/%d runs)"
                  % (workload, trace, result["attempted"] - result["failed"],
                     result["attempted"]))


def gate_can_fail():
    work = bench.WORK / "selftest"
    pristine = bench.rep_and_check("site_minute", 7, True, work / "a", [],
                                   bench.DEADLINE_S)
    altered = bench.rep_and_check("site_minute", 7, True, work / "b", [],
                                  bench.DEADLINE_S)
    check(pristine["digest"] == altered["digest"],
          "two tiny site_minute repetitions have equal digests")

    result = work / "b" / "run" / "result.csv"
    text = result.read_text()
    result.write_text(text.replace("0", "1", 1))
    altered["digest"] = bench.digest_tree(work / "b")
    bench.own_checks(altered, pristine["digest"])
    check(altered["failed_gate"] == altered["runs"],
          "an altered result.csv fails every run of its repetition")

    domains = work / "a" / "run" / "domains.csv"
    lines = domains.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = str(int(cells[2]) + 1)  # the site's server count
    lines[1] = ",".join(cells)
    domains.write_text("\n".join(lines) + "\n")
    problems = bench.check_domains(work / "a")
    check(bool(problems), "an inconsistent domains.csv fails the domains "
          "check (%s)" % (problems[0] if problems else "no problem found"))


def refuses_bad_builds():
    real = bench.driver
    for build_type, flags, optimized in (("Debug", "", False),
                                         ("Release", "-fsanitize=address",
                                          True)):
        info = {"optimized": optimized, "sanitized": bool(flags),
                "build_type": build_type, "cxx_flags": flags,
                "compiler": "test"}
        bench.driver = lambda args, timeout, info=info: (
            info if args == ["info"] else real(args, timeout))
        try:
            bench.bench("row_day", bench.DEFAULT_SEED, 0.0, 0, tiny=True)
            refused = False
        except bench.BenchError:
            refused = True
        finally:
            bench.driver = real
        check(refused, "refuses to measure a %s build%s"
              % (build_type, " with " + flags if flags else ""))


def main():
    try:
        bench.build()
        metrics_complete()
        gate_can_fail()
        refuses_bad_builds()
    except bench.BenchError as e:
        check(False, "benchmark error: %s" % e)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
