#!/usr/bin/env python3
"""The repository benchmark: host-time metrics for the simulator, the model
checker and the real-atomics lock library.

One run of one workload (the form BENCHMARK.json's command takes):

    python3 hbobench/bench.py --workload suite --seed 1 --seconds 10 --trace 0

prints `name value unit` lines and, last, one JSON object with `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` measures the workload's
end-to-end metrics; `--trace 1` runs the traced per-layer pass instead.

Every workload, `--runs` times, then one traced pass:

    python3 hbobench/bench.py [--runs N] [--seed S] [--seconds T] [--only W,...] [--record]
    python3 hbobench/bench.py --bless

Both forms build the workspace binaries and `hbo-bench` first, with
`cargo build --offline --release` into $CARGO_TARGET_DIR (default
`.bench_build`). Only the standard library is used. Each workload runs as
child processes, launched through `hbo-bench run`, which times each from
spawn to exit and reads its peak RSS from the kernel. The exit code is
non-zero when a build or a child fails, and then no result is printed. A
failed output check makes a single run report `"correct": false`, and
makes the summary form exit non-zero.
"""

import argparse
import datetime
import functools
import hashlib
import itertools
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = HERE / "expected.json"
LEDGER_PATH = HERE / "ledger.jsonl"

# The seed `experiments fig5` runs with; coherence cells are checked against
# expected.json only at this seed.
DEFAULT_SEED = 0x5EED
# Zero-work runs before each measuring child; their median over the run is
# `setup_s`. Spread over the run rather than taken in one burst, they do not
# all land in one short stretch of host contention.
SETUP_PER_CHILD = 3
# Fewest measuring children a run starts for each turn, however short
# `--seconds` is.
MIN_CHILDREN = 3
# How long each `hbo-bench` child measures before the next set-up samples.
CHUNK_SECONDS = 1.0
# The host's clock speed drifts by up to a third over minutes, and every
# workload slows with it. A run times `hbo-bench calibrate`, a fixed integer
# loop, at most every CALIBRATE_EVERY_S seconds, and scales its times to the
# speed at which the fastest of those takes NOMINAL_CALIBRATION_S (about the
# fastest this host runs it).
CALIBRATE_EVERY_S = 0.5
NOMINAL_CALIBRATION_S = 0.010
# Process creation speed drifts as well, and it is most of a zero-work run.
# Each set-up sample is paired with a spawn of `hbo-noop`, an empty program,
# and `setup_s` is scaled to the speed at which the median of those takes
# NOMINAL_SPAWN_S (about this host's median).
NOMINAL_SPAWN_S = 0.0008

SUITE_ARGS = ["all", "--fast", "--jobs", "2"]
# The suite's zero-work run: the same flags, but `--list` stops before any
# artifact runs or file is written. A zero-work run that wrote its TSV
# drifted up 17% over three minutes while the runs without I/O stayed flat.
SUITE_SETUP_ARGS = ["--fast", "--jobs", "2", "--list"]
# Every model-checker subject runs at three CPUs, where backtracking
# replays deep schedules from scratch, with two iterations per thread. RH
# and HBO_GT_SD run one: at two they take 5.8 s and 17.7 s of the 30 s
# `--kind all --cpus 3 --iters 2` run, more than fits in a run's passes.
MCHECK_CPUS = 3
MCHECK_ITERS = 2
MCHECK_SHALLOW = {"RH": 1, "HBO_GT_SD": 1}
# Only a subject that passed exhaustively prints a line of this form.
MCHECK_PASS = re.compile(
    r"^(\S+)\s+cpus=\d+ iters=\d+: PASS  \(exhaustive\) states=(\d+) transitions=(\d+)"
)


class Failure(Exception):
    """A build or a child process failed; no result can be reported."""


def target_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def work_dir():
    path = target_dir() / "hbobench"
    path.mkdir(parents=True, exist_ok=True)
    return path


def binary(name):
    return str(target_dir() / "release" / name)


def build():
    if not (ROOT / "Cargo.toml").is_file():
        raise Failure(f"no Cargo workspace at {ROOT}: run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    release = ["cargo", "build", "--offline", "--release", "--quiet"]
    for cmd in (
        release + ["-p", "nuca-experiments", "-p", "nuca-modelcheck", "--bins"],
        release + ["--manifest-path", str(HERE / "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise Failure("build failed: " + " ".join(cmd))


class Child:
    """A finished child process: wall seconds, peak RSS in MiB, stdout.

    The child is launched through `hbo-bench run`, which times it and reads
    its peak RSS from the kernel. Spawned from this interpreter directly,
    every child would inherit the interpreter's ~20 MiB peak as a floor."""

    def __init__(self, argv):
        self.argv = argv
        self.log = work_dir() / "child.stderr"
        with open(self.log, "wb") as err:
            launcher = subprocess.run(
                [binary("hbo-bench"), "run", "--", *argv],
                cwd=work_dir(), stdout=subprocess.PIPE, stderr=err,
            )
        *lines, last = launcher.stdout.decode().splitlines() or [""]
        if launcher.returncode != 0:
            raise Failure(f"could not launch {argv[0]}: {self.log.read_text(errors='replace')}")
        measured = json.loads(last)
        self.stdout = "\n".join(lines)
        self.code = measured["code"]
        self.wall_s = measured["wall_s"]
        self.rss_mb = measured["max_rss_kib"] / 1024

    def require_ok(self):
        if self.code != 0:
            tail = self.log.read_text(errors="replace")[-2000:]
            raise Failure(f"{' '.join(self.argv)} exited {self.code}\n{tail}")
        return self

    def last_json(self):
        self.require_ok()
        return json.loads(self.stdout.strip().splitlines()[-1])


def tsv_hashes(directory):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(directory).glob("*.tsv"))
    }


def mcheck_subjects():
    """The verified subjects, in the order `nuca-mcheck --list` prints them."""
    listing = Child([binary("nuca-mcheck"), "--list"]).require_ok().stdout
    for line in listing.splitlines():
        if line.startswith("verified subjects:"):
            return [s.strip() for s in line.split(":", 1)[1].split(",")]
    raise Failure(f"nuca-mcheck --list printed no subjects:\n{listing}")


def mcheck_args(subject):
    iters = MCHECK_SHALLOW.get(subject, MCHECK_ITERS)
    return ["--kind", subject, "--cpus", str(MCHECK_CPUS), "--iters", str(iters)]


def mcheck_child(subject):
    """Checks `subject` in a child of its own. Returns the child and, if the
    subject passed exhaustively, its (distinct states, transitions)."""
    child = Child([binary("nuca-mcheck"), *mcheck_args(subject)])
    for m in filter(None, map(MCHECK_PASS.match, child.stdout.splitlines())):
        if m.group(1) == subject:
            return child, (int(m.group(2)), int(m.group(3)))
    return child, None


def mcheck_pass(subjects):
    """Checks every subject; returns the children by subject, and (distinct
    states, transitions) by subject for those that passed exhaustively."""
    runs = {s: mcheck_child(s) for s in subjects}
    children = {s: child for s, (child, _) in runs.items()}
    passed = {s: counts for s, (_, counts) in runs.items() if counts}
    return children, passed


def cell_digests(cells):
    """Maps `protocol/KIND/critical_work` to "elapsed_ns local_txns global_txns"."""
    return {f"{p}/{k}/{cw}": f"{e} {l} {g}" for p, k, cw, e, l, g in cells}


def count_mismatches(expected, got):
    """Checks made and failed comparing `got` against every expected key
    (a key `got` has but `expected` lacks also fails)."""
    keys = set(expected) | set(got)
    return len(keys), sum(1 for k in keys if expected.get(k) != got.get(k))


class Run:
    """One measuring run: the pass times of each part of the workload, the
    children's peak RSS by turn, set-up times and output-check counts."""

    def __init__(self):
        self.parts = {}
        self.rss_mb = {}
        self.setup_s = []
        self.spawn_s = []
        self.calibration_s = []
        self.attempted = 0
        self.failed = 0

    def tally(self, checks):
        self.attempted += checks[0]
        self.failed += checks[1]

    def speed_scale(self):
        return NOMINAL_CALIBRATION_S / min(self.calibration_s)

    def spawn_scale(self):
        return NOMINAL_SPAWN_S / statistics.median(self.spawn_s)

    def passes_s(self):
        """Every part's pass times, in one list."""
        return [t for times in self.parts.values() for t in times]

    def metrics(self):
        # Each part's fastest pass, not its median: on a shared host a pass
        # runs either alone or beside a busy neighbour at about 0.6x speed,
        # so the median tracks how busy the neighbours were. The turns run
        # one after another, so the workload's peak is its largest turn's.
        return {
            "wall_s": sum(map(min, self.parts.values())) * self.speed_scale(),
            "setup_s": statistics.median(self.setup_s) * self.spawn_scale(),
            "peak_rss_mb": max(map(statistics.median, self.rss_mb.values())),
        }


def measure(seconds, setup_argv, turns, step):
    """Alternates zero-work set-up runs with measuring children, `turns`
    taking turns, until `seconds` have passed and every turn has had
    MIN_CHILDREN children. `step(turn)` runs one child and returns the pass
    times of each part it ran ({part: [seconds]}), its peak RSS and
    (checks attempted, checks failed)."""
    run = Run()
    started = time.perf_counter()
    calibrated = -CALIBRATE_EVERY_S
    for i in itertools.count():
        if i >= MIN_CHILDREN * len(turns) and time.perf_counter() - started >= seconds:
            return run
        if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
            calibrated = time.perf_counter()
            out = Child([binary("hbo-bench"), "calibrate"]).last_json()
            run.calibration_s.append(out["calibration_s"])
        for _ in range(SETUP_PER_CHILD):
            run.spawn_s.append(Child([binary("hbo-noop")]).require_ok().wall_s)
            run.setup_s.append(Child(setup_argv).require_ok().wall_s)
        turn = turns[i % len(turns)]
        parts, rss_mb, checks = step(turn)
        for part, times in parts.items():
            run.parts.setdefault(part, []).extend(times)
        run.rss_mb.setdefault(turn, []).append(rss_mb)
        run.tally(checks)


def run_suite(seed, seconds, expected):
    """`experiments all --fast --jobs 2`; every TSV must match its sha256.
    The suite has no random input, so the seed changes nothing."""
    out = work_dir() / "suite"
    exe = binary("experiments")

    def step(_):
        shutil.rmtree(out, ignore_errors=True)
        child = Child([exe, *SUITE_ARGS, "--out", str(out)])
        if child.code != 0:
            checks = (len(expected["suite"]), len(expected["suite"]))
        else:
            checks = count_mismatches(expected["suite"], tsv_hashes(out))
        return {"suite": [child.wall_s]}, child.rss_mb, checks

    return measure(seconds, [exe, *SUITE_SETUP_ARGS], ["suite"], step)


def run_mcheck(seed, seconds, expected):
    """`nuca-mcheck` on every verified subject, the subjects taking turns,
    each a part of its own; each must pass exhaustively with its expected
    distinct-state count. The search is exhaustive, so the seed changes
    nothing."""
    subjects = mcheck_subjects()
    states = expected["mcheck"]["states"]

    def step(subject):
        child, counts = mcheck_child(subject)
        ok = counts is not None and counts[0] == states.get(subject)
        return {subject: [child.wall_s]}, child.rss_mb, (1, 0 if ok else 1)

    run = measure(seconds, [binary("nuca-mcheck"), "--list"], subjects, step)
    # An expected subject the checker no longer lists, or a new one, fails.
    run.tally(count_mismatches(dict.fromkeys(states), dict.fromkeys(subjects)))
    return run


def run_in_process(workload, seed, seconds, expected):
    """`hbo-bench coherence|hostlocks`, each child timing its own passes for
    CHUNK_SECONDS: one part per protocol, or per lock kind. Coherence cells
    must match expected.json at the default seed, and the run's first child
    at any other."""
    argv = [binary("hbo-bench"), workload, "--seed", str(seed), "--seconds"]
    reference = expected["coherence"]["cells"] if seed == DEFAULT_SEED else None

    def step(_):
        nonlocal reference
        child = Child(argv + [str(CHUNK_SECONDS)])
        out = child.last_json()
        attempted, failed = out["attempted"], out["failed"]
        if workload == "coherence":
            cells = cell_digests(out["cells"])
            if reference is None:
                reference = cells
            else:
                a, f = count_mismatches(reference, cells)
                attempted, failed = attempted + a, failed + f
        return out["parts"], child.rss_mb, (attempted, failed)

    return measure(seconds, argv + ["0"], [workload], step)


WORKLOADS = {
    "suite": run_suite,
    "coherence": functools.partial(run_in_process, "coherence"),
    "mcheck": run_mcheck,
    "hostlocks": functools.partial(run_in_process, "hostlocks"),
}


def run_layers(seed, expected, trace_name):
    """The traced per-layer pass: `hbo-bench layers`, then one `mcheck`
    pass for the `modelcheck.*` metrics. Returns (metrics, attempted,
    failed)."""
    trace = work_dir() / trace_name
    out = Child(
        [binary("hbo-bench"), "layers", "--seed", str(seed), "--trace-out", str(trace)]
    ).last_json()
    metrics = {name: (value, unit) for name, value, unit in out["metrics"]}
    children, passed = mcheck_pass(mcheck_subjects())
    for subject, (states, _) in passed.items():
        # Timed from outside, so process start (~1 ms) is part of it.
        rate = states / children[subject].wall_s
        metrics[f"modelcheck.{subject}.states_per_s"] = (rate, "states/s")
    metrics["modelcheck.distinct_states"] = (sum(n for n, _ in passed.values()), "states")
    metrics["modelcheck.transitions"] = (sum(t for _, t in passed.values()), "transitions")
    got = {s: n for s, (n, _) in passed.items()}
    attempted, failed = count_mismatches(expected["mcheck"]["states"], got)
    print(f"(traced pass: {out['spans']} spans in {trace}; "
          f"tracing overhead at most {out['overhead_bound_ms']:.4f} ms)")
    return metrics, out["attempted"] + attempted, out["failed"] + failed


def checked_metrics(spec_metrics, measured):
    """Orders `measured` as the spec lists it; every listed metric must be
    present, finite and in the listed unit."""
    result = {}
    for m in spec_metrics:
        value, unit = measured.get(m["name"], (None, None))
        if value is None or unit != m["unit"] or value != value or abs(value) == float("inf"):
            raise Failure(f"metric {m['name']}: got {value!r} {unit!r}, want a number in {m['unit']}")
        result[m["name"]] = {"value": value, "unit": unit}
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def single_run(args, spec, expected):
    if args.trace:
        measured, attempted, failed = run_layers(args.seed, expected, f"trace-{args.workload}.json")
        metrics = checked_metrics(spec["per_layer"], measured)
        for name, m in metrics.items():
            print(f"{name} {m['value']} {m['unit']}")
    else:
        run = WORKLOADS[args.workload](args.seed, args.seconds, expected)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        measured = {k: (v, units[k]) for k, v in run.metrics().items()}
        metrics = checked_metrics(spec["end_to_end"], measured)
        for name, m in metrics.items():
            print(f"{name} {m['value']} {m['unit']}")
        passes = run.passes_s()
        q1, q3 = quartiles(passes)
        print(f"(unscaled passes of {len(run.parts)} part(s): n {len(passes)}, "
              f"fastest {min(passes):.6g} s, median {statistics.median(passes):.6g} s, "
              f"q1 {q1:.6g} s, q3 {q3:.6g} s; "
              f"set-up runs: n {len(run.setup_s)}, spawn scale {run.spawn_scale():.4f}; "
              f"host speed scale {run.speed_scale():.4f} from {len(run.calibration_s)} calibrations)")
        attempted, failed = run.attempted, run.failed
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def git(*argv):
    try:
        r = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def host_fingerprint():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu}


def summary_run(args, spec, expected):
    names = [w["name"] for w in spec["workloads"]]
    if args.only:
        names = [n for n in names if n in args.only.split(",")]
    samples = {}
    attempted = failed = 0
    for _ in range(args.runs):
        for w in names:
            run = WORKLOADS[w](args.seed, args.seconds, expected)
            attempted += run.attempted
            failed += run.failed
            for k, v in run.metrics().items():
                samples.setdefault(f"{w}.{k}", []).append(v)
    measured, a, f = run_layers(args.seed, expected, "trace.json")
    attempted += a
    failed += f
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    rows = {}
    for name, values in samples.items():
        q1, q3 = quartiles(values)
        rows[name] = {
            "median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "unit": units[name.split(".", 1)[1]],
        }
    for name, m in checked_metrics(spec["per_layer"], measured).items():
        v = m["value"]
        rows[f"layers.{name}"] = {"median": v, "q1": v, "q3": v, "n": 1, "unit": m["unit"]}
    for name, r in rows.items():
        print(f"{name} {r['median']} {r['unit']}  "
              f"(median {r['median']:.6g}, q1 {r['q1']:.6g}, q3 {r['q3']:.6g}, n {r['n']})")
    print(f"checks: {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / max(attempted, 1):.6g})")
    if args.record:
        row = {
            "rev": git("rev-parse", "HEAD") or "unknown",
            "dirty": bool(git("status", "--porcelain")),
            "host": host_fingerprint(),
            "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "runs": args.runs, "seconds": args.seconds, "seed": args.seed,
            "checks": {"attempted": attempted, "failed": failed},
            "metrics": rows,
        }
        with open(LEDGER_PATH, "a") as ledger:
            ledger.write(json.dumps(row, sort_keys=True) + "\n")
        print(f"appended a row to {LEDGER_PATH}")
    return 0 if failed == 0 else 1


def bless():
    """Regenerates expected.json from the current build. Only a change that
    deliberately alters simulated output runs this, and it claims no gain."""
    out = work_dir() / "suite"
    shutil.rmtree(out, ignore_errors=True)
    Child([binary("experiments"), *SUITE_ARGS, "--out", str(out)]).require_ok()
    subjects = mcheck_subjects()
    children, passed = mcheck_pass(subjects)
    for child in children.values():
        child.require_ok()
    argv = [binary("hbo-bench"), "coherence", "--seed", str(DEFAULT_SEED), "--seconds", "0.001"]
    cells, again = (cell_digests(Child(argv).last_json()["cells"]) for _ in range(2))
    if cells != again:
        raise Failure("coherence cells differ between two runs; not blessing")
    expected = {
        "suite": tsv_hashes(out),
        "coherence": {"seed": DEFAULT_SEED, "cells": cells},
        "mcheck": {
            "args": {s: mcheck_args(s) for s in subjects},
            "states": {s: n for s, (n, _) in passed.items()},
        },
    }
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}: {len(expected['suite'])} TSVs, "
          f"{len(expected['coherence']['cells'])} cells, {len(expected['mcheck']['states'])} subjects")
    return 0


def main():
    spec = json.loads(SPEC_PATH.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads, help="one run of one workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: run the traced per-layer pass instead")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="how long each run measures")
    p.add_argument("--runs", type=int, default=1, help="untraced runs of every workload")
    p.add_argument("--only", help="comma-separated workloads to run")
    p.add_argument("--record", action="store_true", help="append a row to ledger.jsonl")
    p.add_argument("--bless", action="store_true", help="regenerate expected.json")
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 0 or args.runs < 1:
        p.error("--seed and --seconds must be non-negative and --runs positive")
    try:
        build()
        if args.bless:
            return bless()
        expected = json.loads(EXPECTED_PATH.read_text())
        if args.workload:
            return single_run(args, spec, expected)
        return summary_run(args, spec, expected)
    except Failure as e:
        print(f"bench.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
