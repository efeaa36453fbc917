#!/usr/bin/env python3
"""Discovery benchmark: end-to-end and per-layer metrics on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload hm-kout-seq --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all             # every workload, untraced then traced
    python3 perfbench/run.py --workload all --smoke     # tiny n: every metric name with its unit
    python3 perfbench/run.py --workload hm-kout-seq --tamper   # negative control

The load is a closed loop with one client: one discovery run at a time,
each started after the previous one was verified. Every iteration runs
in a child process of its own (the `rd-perfbench` worker built from
`perfbench/`), so its peak RSS is that iteration's. `--trace 0` reports
the end-to-end metrics; `--trace 1` makes one traced run and reports the
per-layer metrics. The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# name -> (default log2 n, log2 n under --smoke, peak RSS in MiB recorded
# at the default size on a 2-core x86-64 host with 15 GB RAM, which the
# preflight check compares MemAvailable against; instances per run).
#
# A run cycles through a fixed set of instances: instance 0 is built from
# the run's own seed, the others from seeds derived from it. Instances
# differ in cost (HM needs 33 or 39 rounds at 2^14, depending on the
# seed), so one instance per run would make every figure swing with the
# seed; averaging over the set keeps that out while every count stays
# exact for a given seed.
WORKLOADS = {
    "hm-kout-seq": (14, 8, 2300, 4),
    "hm-kout-sharded2": (14, 8, 3400, 4),
    "fault-campaigns": (11, 6, 200, 3),
    "hm-kout-causal": (12, 8, 350, 2),
}
ORDER = ["hm-kout-seq", "hm-kout-sharded2", "fault-campaigns", "hm-kout-causal"]

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rounds", "count"),
    ("messages", "count"),
    ("pointers", "count"),
]

PER_LAYER = [
    ("graphs.generate_s", "s"),
    ("core.initial_knowledge_s", "s"),
    ("core.make_nodes_s", "s"),
    ("sim.begin_round_s", "s"),
    ("sim.deliver_compute_s", "s"),
    ("sim.route_s", "s"),
    ("sim.finish_round_s", "s"),
    ("sim.round_ms_p50", "ms"),
    ("sim.round_ms_tail", "ms"),
    ("sim.envelopes", "count"),
    ("sim.ns_per_pointer", "ns"),
    ("sim.pool_high_water_mb", "MB"),
    ("core.knowledge_insert_ns", "ns"),
    ("core.knowledge_contains_ns", "ns"),
    ("core.union_from_ns_per_word", "ns"),
    ("core.knowledge_resident_mb", "MB"),
    ("exec.step_s", "s"),
    ("exec.round_ms_p50", "ms"),
    ("exec.speedup_vs_sim", "x"),
    ("exec.pool_high_water_mb", "MB"),
    ("driver.completion_check_s", "s"),
    ("driver.verify.eke_s", "s"),
    ("driver.verify.live_component_s", "s"),
    ("driver.verify.no_fabricated_s", "s"),
] + [
    (f"scenarios.{run}.wall_s", "s")
    for run in (
        "flash-crowd-join.hm",
        "flash-crowd-join.name-dropper",
        "datacenter-bootstrap.hm",
        "datacenter-bootstrap.name-dropper",
        "partition-heal.hm",
        "continuous-churn.hm",
        "lossy-asym-links.hm",
        "grey-failure.hm",
        "adversarial-suppression.hm",
        "crash-storm-recovery.hm",
    )
] + [
    ("faults.drops", "count"),
    ("faults.retransmissions", "count"),
    ("faults.delivery_ratio", "ratio"),
    ("obs.causal_overhead_x", "x"),
    ("obs.causal_offers", "count"),
    ("obs.causal_edges", "count"),
    ("obs.causal_useful_ratio", "ratio"),
    ("obs.archive_mb", "MB"),
    ("obs.causal_extra_rss_mb", "MB"),
    ("obs.archive_overhead_pct", "%"),
    ("obs.profile_overhead_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
]

# What a run's cross-checks compare: the model's counts.
COUNTS = ("rounds", "messages", "pointers", "bits")

# A single run of the benchmark must end within 180 s; no child is
# started that could not finish before this many seconds have passed.
HARD_LIMIT_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Fatal(Exception):
    """Ends the benchmark without a result line."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=ORDER + ["all"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny instances: check names and units")
    p.add_argument(
        "--tamper",
        action="store_true",
        help="negative control: add one round to every expected count",
    )
    return p.parse_args(argv)


def build():
    """Builds the worker from source; returns the binary's path."""
    for needed in ("crates", "compat"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise Fatal(f"{needed} is missing: run from a full checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as err:
        raise Fatal(f"build failed: {err}")
    if done.returncode != 0:
        log(done.stderr[-4000:])
        raise Fatal("build failed")
    out_dir = os.path.join(target, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(target, "release", "rd-perfbench"), out_dir


def host_record(args, runs):
    def lines(cmd):
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
            return done.stdout.strip().splitlines() if done.returncode == 0 else []
        except (OSError, subprocess.TimeoutExpired):
            return []

    # Outside a git checkout, git would report an enclosing repository.
    git = lines(["git", "rev-parse", "--show-toplevel", "HEAD"])
    commit = git[1] if len(git) == 2 and os.path.samefile(git[0], ROOT) else None

    digest = hashlib.sha256()
    for top in ("Cargo.lock", "crates", "compat", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for f in files:
            if f.endswith((".rs", ".toml", ".lock", ".py")):
                digest.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    digest.update(fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(meminfo("MemTotal") / 1024),
        "machine": platform.machine(),
        "rustc": (lines(["rustc", "--version"]) or [None])[0],
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": runs,
    }


def instance_seed(seed, i):
    """Seed of instance `i` of a run: the run's seed for instance 0."""
    return (seed ^ (i * 0x9E3779B97F4A7C15)) % 2**64


def meminfo(field):
    """A /proc/meminfo field in KiB."""
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise Fatal(f"/proc/meminfo has no {field}")


class Bench:
    def __init__(self, args, binary, out_dir):
        self.args = args
        self.binary = binary
        self.out_dir = out_dir
        self.started = time.monotonic()
        self.correct = True
        self.attempted = 0
        self.failed = 0

    def log2_n(self, workload):
        default, smoke, _, _ = WORKLOADS[workload]
        return smoke if self.args.smoke else default

    def child(self, command, workload, *extra, seed=None):
        """Runs one worker child; returns (result dict or None, peak RSS MiB)."""
        if not self.args.smoke:
            need_kib = WORKLOADS[workload][2] * 1024 * 1.15
            avail = meminfo("MemAvailable")
            if avail < need_kib:
                raise Fatal(
                    f"insufficient memory: {workload} peaks near {WORKLOADS[workload][2]} MiB, "
                    f"MemAvailable is {avail // 1024} MiB"
                )
        argv = [
            self.binary, command, workload,
            "--seed", str(self.args.seed if seed is None else seed),
            "--log2-n", str(self.log2_n(workload)),
            "--out-dir", self.out_dir,
        ] + list(extra)
        out_path = os.path.join(self.out_dir, f"child-{os.getpid()}.out")
        with open(out_path, "wb") as out:
            pid = os.posix_spawn(
                self.binary, argv, os.environ,
                file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1)],
            )
        deadline = self.started + HARD_LIMIT_S
        while True:
            wpid, status, usage = os.wait4(pid, os.WNOHANG)
            if wpid == pid:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                _, status, usage = os.wait4(pid, 0)
                break
            time.sleep(0.02)
        rss_mb = usage.ru_maxrss / 1024
        with open(out_path) as fh:
            lines = fh.read().splitlines()
        os.remove(out_path)
        if os.WIFSIGNALED(status):
            log(f"FAIL {workload} {command}: killed by signal "
                f"{signal.Signals(os.WTERMSIG(status)).name} (peak RSS {rss_mb:.0f} MiB)")
            return None, rss_mb
        if os.WEXITSTATUS(status) != 0 or not lines:
            log(f"FAIL {workload} {command}: exit code {os.WEXITSTATUS(status)}")
            return None, rss_mb
        return json.loads(lines[-1]), rss_mb

    def account(self, label, runs, expected=None):
        """Counts a child's runs; `expected` holds each run's
        [rounds, messages, pointers, bits] as its cross-check demands."""
        for i, run in enumerate(runs):
            self.attempted += 1
            problems = list(run.get("problems", []))
            if not run["sound"]:
                problems.append("unsound")
            got = [run[key] for key in COUNTS]
            if expected is not None and got != expected[i]:
                problems.append(f"counts {got} != expected {expected[i]}")
            if problems:
                self.correct = False
            if problems or not run["passed"]:
                self.failed += 1
                why = problems + run["notes"]
                log(f"FAIL {label} {run['name']}: verdict={run['verdict']} {'; '.join(why)}")

    def killed(self, workload):
        """Counts the runs of a child that produced no result as failed."""
        runs_lost = 10 if workload == "fault-campaigns" else 1
        self.attempted += runs_lost
        self.failed += runs_lost

    def expected_counts(self, runs):
        counts = [[r[key] for key in COUNTS] for r in runs]
        if self.args.tamper:
            counts = [[c[0] + 1] + c[1:] for c in counts]
        return counts

    def reference_path(self, seed):
        """Where hm-kout-seq's counts for one instance are kept."""
        return os.path.join(
            self.out_dir, "reference", f"hm-kout-seq-{self.log2_n('hm-kout-seq')}-{seed}.json"
        )

    def save_reference(self, seed, runs):
        path = self.reference_path(seed)
        if not os.path.exists(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path + ".tmp", "w") as fh:
                json.dump([{key: r[key] for key in COUNTS} for r in runs], fh)
            os.replace(path + ".tmp", path)

    def check_archive(self, result):
        """The causal archive's summary must repeat the run's counts and
        its provenance section must hold edges; returns its size in MiB."""
        path = result.get("archive")
        if path is None:
            return None
        run = result["runs"][0]
        problems = []
        summary = trace_meta = None
        try:
            size_mb = os.path.getsize(path) / 2**20
            with open(path) as fh:
                for line in fh:
                    if line.startswith('{"type":"summary"'):
                        summary = json.loads(line)
                    elif line.startswith('{"type":"trace_meta"'):
                        trace_meta = json.loads(line)
            os.remove(path)
        except (OSError, ValueError) as err:
            problems.append(f"archive unreadable: {err}")
            size_mb = None
        if summary is None or trace_meta is None:
            problems.append("archive lacks its summary or trace_meta record")
        else:
            for key in ("rounds", "messages", "pointers"):
                if summary[key] != run[key]:
                    problems.append(f"archive {key} {summary[key]} != report {run[key]}")
            if not (0 < trace_meta["edges"] <= trace_meta["candidates"]):
                problems.append(f"archive trace_meta implausible: {trace_meta}")
        run.setdefault("problems", []).extend(problems)
        return size_mb

    def measure(self, workload):
        """The untraced closed loop: iterations over the run's instances,
        in turn, until every instance ran once and --seconds passed."""
        seeds = [instance_seed(self.args.seed, i) for i in range(WORKLOADS[workload][3])]
        expected = [None] * len(seeds)
        if workload == "hm-kout-sharded2":
            # The sharded engine must repeat the sequential engine's counts
            # on every instance hm-kout-seq has run in this checkout, and
            # on instance 0 always: a reference run fills that in if needed.
            if not os.path.exists(self.reference_path(seeds[0])):
                ref, _ = self.child("run", "hm-kout-seq", "--setup-reps", "1")
                if ref is None:
                    self.killed(workload)
                    self.correct = False
                else:
                    self.account(f"{workload}/reference", ref["runs"])
                    self.save_reference(seeds[0], ref["runs"])
            for k, seed in enumerate(seeds):
                if os.path.exists(self.reference_path(seed)):
                    with open(self.reference_path(seed)) as fh:
                        expected[k] = self.expected_counts(json.load(fh))
        walls = [[] for _ in seeds]
        rss = [[] for _ in seeds]
        counts = [None] * len(seeds)
        setups, durations = [], []
        t0 = time.monotonic()
        i = 0
        while True:
            k = i % len(seeds)
            begun = time.monotonic()
            result, peak = self.child("run", workload, seed=seeds[k])
            durations.append(time.monotonic() - begun)
            i += 1
            if result is None:
                self.killed(workload)
            else:
                self.check_archive(result)
                if expected[k] is None:
                    expected[k] = self.expected_counts(result["runs"])
                self.account(workload, result["runs"], expected[k])
                if workload == "hm-kout-seq":
                    self.save_reference(seeds[k], result["runs"])
                walls[k].append(result["wall_s"])
                rss[k].append(peak)
                setups.extend(result["setup_s"])
                counts[k] = {key: sum(r[key] for r in result["runs"]) for key in COUNTS}
            now = time.monotonic()
            if i >= len(seeds) and now - t0 >= self.args.seconds:
                break
            if now + max(durations) > self.started + HARD_LIMIT_S:
                log(f"note: stopping {workload} early to stay within {HARD_LIMIT_S:.0f} s")
                break
        if None in counts:
            raise Fatal(f"some instance of {workload} produced no result")
        log(f"{workload}: {i} iterations over {len(seeds)} instances, walls (s) "
            + " | ".join(" ".join(f"{w:.3f}" for w in ws) for ws in walls))
        values = {
            "wall_s": statistics.mean(statistics.median(ws) for ws in walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.mean(statistics.median(rs) for rs in rss),
            **{key: sum(c[key] for c in counts) for key in ("rounds", "messages", "pointers")},
        }
        return {name: (values[name], unit) for name, unit in END_TO_END}, i

    def traced(self, workload):
        """One untraced child paired with one traced child; the traced
        child's spans give the per-layer metrics."""
        values = {name: 0.0 for name, _ in PER_LAYER}
        base, base_rss = self.child("run", workload, "--setup-reps", "1")
        if base is None:
            self.killed(workload)
            raise Fatal(f"the untraced {workload} run produced no result")
        archive_mb = self.check_archive(base)
        expected = self.expected_counts(base["runs"])
        self.account(f"{workload}/untraced", base["runs"], expected)
        plain = None
        if workload == "hm-kout-causal":
            plain, plain_rss = self.child("run", workload, "--obs", "none", "--setup-reps", "1")
            if plain is None:
                self.killed(workload)
            else:
                self.account(f"{workload}/untraced-bare", plain["runs"], expected)
        traced, _ = self.child("layers", workload)
        if traced is None:
            self.killed(workload)
            raise Fatal(f"the traced {workload} run produced no result")
        # Every run of a traced hm-kout-* child is the untraced run's
        # instance on the same seed (replica, engine or telemetry pair),
        # so each must repeat its counts; campaigns pair up run by run.
        if workload != "fault-campaigns":
            expected = expected * len(traced["runs"])
        self.account(f"{workload}/traced", traced["runs"], expected)
        values.update(traced["metrics"])
        if workload == "hm-kout-causal":
            if plain is not None:
                values["obs.causal_overhead_x"] = base["wall_s"] / plain["wall_s"]
                values["obs.causal_extra_rss_mb"] = base_rss - plain_rss
            if archive_mb is not None:
                values["obs.archive_mb"] = archive_mb
        values["bench.trace_overhead_pct"] = (traced["wall_s"] / base["wall_s"] - 1) * 100
        spans = traced.get("spans")
        if spans:
            keep = os.path.join(self.out_dir, f"spans-{workload}-{self.args.seed}.jsonl")
            os.replace(spans, keep)
            log(f"{workload}: span log in {os.path.relpath(keep, ROOT)}")
        log(f"{workload}: self time by span (s): "
            + ", ".join(f"{name} {s:.3f}" for name, s in traced["self_time"][:8]))
        return {name: (values[name], unit) for name, unit in PER_LAYER}


def main(argv):
    args = parse_args(argv)
    try:
        binary, out_dir = build()
        bench = Bench(args, binary, out_dir)
        workloads = ORDER if args.workload == "all" else [args.workload]
        modes = [0, 1] if args.workload == "all" else [args.trace]
        metrics, iterations = {}, {}
        for workload in workloads:
            for trace in modes:
                bench.started = time.monotonic()
                if trace:
                    got, iterations[f"{workload}/trace"] = bench.traced(workload), 1
                else:
                    got, iterations[workload] = bench.measure(workload)
                prefix = f"{workload}." if args.workload == "all" else ""
                print(f"{workload} ({'traced' if trace else 'untraced'}):")
                for name, (value, unit) in got.items():
                    print(f"  {name:<48} {value:>16.6g} {unit}")
                    metrics[prefix + name] = {"value": value, "unit": unit}
    except Fatal as err:
        log(f"perfbench: {err}")
        return 1
    print("host: " + json.dumps(host_record(args, iterations), sort_keys=True))
    if bench.attempted:
        print(f"fail_ratio: {bench.failed / bench.attempted:.4f} "
              f"({bench.failed} of {bench.attempted} runs failed)")
    print(json.dumps({
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
