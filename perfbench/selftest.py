#!/usr/bin/env python3
"""Self-checks of the discovery benchmark. Run from the repository root:

    python3 perfbench/selftest.py

1. BENCHMARK.json names the metrics and units run.py reports.
2. Smoke: every workload at a tiny n, untraced and traced, prints every
   metric by name with its unit, the result line carries exactly the
   metrics of its mode, and every run passes.
3. Negative control: a tampered expected count is reported as a failure.
4. A directory holding only BENCHMARK.json and perfbench/ makes the
   benchmark exit non-zero without printing a result.
5. The worker's unit tests pass.
"""

import json
import os
import re
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

FAILURES = []


def check(ok, what):
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    result = None
    lines = done.stdout.strip().splitlines()
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return done, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    check(end_to_end == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    check(per_layer == run.PER_LAYER, "BENCHMARK.json per_layer matches run.py")
    check([w["name"] for w in spec["workloads"]] == run.ORDER, "BENCHMARK.json workloads match run.py")

    done, result = bench("--workload", "all", "--smoke", "--seconds", "0.2")
    check(done.returncode == 0 and result is not None, "smoke run of every workload")
    if result is not None:
        check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
              f"smoke runs pass ({result['failed']} of {result['attempted']} failed)")
        for workload in run.ORDER:
            for trace, metrics in ((0, end_to_end), (1, per_layer)):
                header = f"{workload} ({'traced' if trace else 'untraced'}):"
                after = done.stdout.split(header + "\n", 1)[-1].splitlines()
                section = "\n".join(next(
                    (after[:i] for i, line in enumerate(after) if not line.startswith("  ")), after
                ))
                missing = [
                    name for name, unit in metrics
                    if not re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$", section, re.M)
                    or result["metrics"].get(f"{workload}.{name}", {}).get("unit") != unit
                ]
                check(header in done.stdout and not missing,
                      f"{header} prints every metric with its unit {missing or ''}")

    for workload, trace, metrics in (
        ("fault-campaigns", "0", end_to_end),
        ("hm-kout-causal", "1", per_layer),
    ):
        done, result = bench("--workload", workload, "--smoke", "--seconds", "0.2", "--trace", trace)
        check(result is not None and list(result["metrics"]) == [n for n, _ in metrics],
              f"--workload {workload} --trace {trace} reports exactly its mode's metrics")

    for workload in ("hm-kout-seq", "hm-kout-sharded2"):
        done, result = bench("--workload", workload, "--smoke", "--seconds", "0.2", "--tamper")
        check(
            done.returncode == 0 and result is not None and not result["correct"]
            and result["failed"] > 0,
            f"negative control: tampered expected counts fail {workload}",
        )

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("target", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done, result = bench("--workload", "hm-kout-seq", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0 and result is None,
          "a directory with only BENCHMARK.json and perfbench/ fails without a result")

    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    done = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=dict(os.environ, CARGO_TARGET_DIR=target),
        capture_output=True, text=True, timeout=900,
    )
    check(done.returncode == 0, "worker unit tests")

    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
