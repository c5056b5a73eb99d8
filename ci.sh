#!/usr/bin/env bash
# CI entry point: build, test, lint, then smoke-run the experiment
# harness at CI scale with parallel jobs. Mirrors what the GitHub
# workflow runs; usable locally as ./ci.sh.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> benchmark contract tests (hbobench calls the simulator's API)"
cargo test --offline -q --manifest-path hbobench/Cargo.toml

echo "==> harness smoke run (all artifacts, fast scale, 2 jobs)"
rm -rf target/ci-experiments
./target/release/experiments all --fast --jobs 2 --out target/ci-experiments >/dev/null

echo "==> one plan (shared cells give the bytes each artifact makes alone)"
# Artifacts share simulation cells inside `all`; run alone and serially,
# each must write the same TSVs.
rm -rf target/ci-alone
all_ids=$(./target/release/experiments --list |
    sed -n 's/^\(paper artifacts\|extensions\): *//p' | tr -d ',')
for id in $all_ids; do
    ./target/release/experiments "$id" --fast --jobs 1 --out target/ci-alone >/dev/null
done
alone=(target/ci-alone/*.tsv)
together=(target/ci-experiments/*.tsv)
if [ "${#alone[@]}" != "${#together[@]}" ]; then
    echo "expected every TSV of \`all\` from the artifacts run alone"
    exit 1
fi
for tsv in "${alone[@]}"; do
    cmp "$tsv" "target/ci-experiments/$(basename "$tsv")"
done
# `all --fast` declares 652 cells, 477 of them distinct; each distinct
# cell runs once, so the counts and the simulated events are the same at
# any --jobs. Under --profile every cell is profiled, so handoff's 13
# profiled top-row cells are the same cells as fig5's and table2's at
# critical_work = 1500, and 464 run.
plan_counts() {
    sed -n 's/^\[\([0-9]* cells requested, [0-9]* run, [0-9]* simulated events\) in .*\]$/\1/p' "$1"
}
check_plan() { # name, expected "N cells requested, M run", flags...
    local name=$1 expected=$2
    shift 2
    for jobs in 1 4; do
        ./target/release/experiments all --fast --jobs "$jobs" "$@" \
            --out "target/ci-$name-j$jobs" >/dev/null 2>"target/ci-$name-j$jobs.log"
    done
    local plan_j1 plan_j4
    plan_j1=$(plan_counts "target/ci-$name-j1.log")
    plan_j4=$(plan_counts "target/ci-$name-j4.log")
    case "$plan_j1" in
        "$expected, "*) ;;
        *)
            echo "expected \`$expected\` from \`all --fast $*\`, got \`$plan_j1\`"
            exit 1
            ;;
    esac
    if [ "$plan_j1" != "$plan_j4" ]; then
        echo "the plan differs across --jobs: \`$plan_j1\` vs \`$plan_j4\`"
        exit 1
    fi
}
check_plan plan "652 cells requested, 477 run"
check_plan plan-prof "652 cells requested, 464 run" --profile target/ci-plan-prof.json
# A TSV that cannot be written (here --out names a regular file) must fail
# the run.
touch target/ci-out-is-a-file
if ./target/release/experiments table3 --out target/ci-out-is-a-file >/dev/null 2>&1; then
    echo "expected an unwritable --out to fail the run"
    exit 1
fi

echo "==> every settings flag at once (deterministic across --jobs)"
# Each flag reaches the artifacts through one parsed settings value; with
# all of them set, every TSV must still be byte-identical at any --jobs.
settings_flags=(--protocol dragon --binding clustered --twa-slots 64 --twa-hash stride
    --kinds TATAS,MCS,TWA,CNA --shards 4 --zipf 0.5 --arrival-gap 8000)
for jobs in 1 4; do
    rm -rf "target/ci-settings-j$jobs"
    ./target/release/experiments all --fast --jobs "$jobs" "${settings_flags[@]}" \
        --out "target/ci-settings-j$jobs" >/dev/null
done
settings_j1=(target/ci-settings-j1/*.tsv)
settings_j4=(target/ci-settings-j4/*.tsv)
if [ "${#settings_j1[@]}" != "${#settings_j4[@]}" ]; then
    echo "expected the same TSVs at --jobs 1 and 4"
    exit 1
fi
for tsv in "${settings_j1[@]}"; do
    cmp "$tsv" "target/ci-settings-j4/$(basename "$tsv")"
done

echo "==> robustness smoke (faulted sweep deterministic across --jobs)"
./target/release/experiments robustness --fast --jobs 1 \
    --out target/ci-rob-j1 >/dev/null
./target/release/experiments robustness --fast --jobs 4 \
    --out target/ci-rob-j4 >/dev/null
cmp target/ci-rob-j1/robustness.tsv target/ci-rob-j4/robustness.tsv
if ./target/release/experiments robustness --jobs 0 >/dev/null 2>&1; then
    echo "expected --jobs 0 to be rejected as a usage error"
    exit 1
fi

echo "==> trace smoke (traced run must not change results)"
./target/release/experiments fig5 --fast --jobs 2 \
    --out target/ci-trace-off >/dev/null
./target/release/experiments fig5 --fast --jobs 2 \
    --out target/ci-trace-on \
    --trace target/ci-trace-on/trace.json \
    --metrics-json target/ci-trace-on/metrics.json >/dev/null
cmp target/ci-trace-off/fig5_time.tsv target/ci-trace-on/fig5_time.tsv
cmp target/ci-trace-off/fig5_handoff.tsv target/ci-trace-on/fig5_handoff.tsv
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
for path in ("target/ci-trace-on/trace.json", "target/ci-trace-on/metrics.json"):
    with open(path) as f:
        doc = json.load(f)
    assert doc, f"{path} is empty"
events = json.load(open("target/ci-trace-on/trace.json"))["traceEvents"]
names = {e["name"] for e in events}
for required in ("LockAcquire", "CoherenceTxn", "GotAngry", "BackoffSleep"):
    assert required in names, f"trace missing {required} events"
print(f"trace OK: {len(events)} events, {len(names)} distinct names")
metrics = json.load(open("target/ci-trace-on/metrics.json"))
for lock in metrics["locks"]:
    assert "preemptions" in lock and "migrations" in lock, "metrics missing fault counters"
print(f"metrics OK: {len(metrics['locks'])} lock entries with fault counters")
EOF
else
    echo "python3 not found; skipping JSON parse validation"
fi

echo "==> profiler smoke (nuca-prof observes without changing a byte)"
# fig5 with and without --profile must be byte-identical: profiling only
# observes. The profile itself must be byte-identical across --jobs:
# every label merges as a commutative integer fold. table4 runs under OS
# preemption, so it covers the preemption counter's merge. lat_hist reads
# fig5's cells, and handoff's top row is fig5's critical_work = 1500
# column, so each shared cell must be profiled once at any --jobs.
./target/release/experiments fig5 --fast --jobs 2 \
    --out target/ci-prof-off >/dev/null
for jobs in 1 4; do
    ./target/release/experiments fig5 lat_hist table4 handoff --fast --jobs "$jobs" \
        --out "target/ci-prof-j$jobs" \
        --profile "target/ci-prof-j$jobs/profile.json" >/dev/null
done
cmp target/ci-prof-off/fig5_time.tsv target/ci-prof-j1/fig5_time.tsv
cmp target/ci-prof-off/fig5_handoff.tsv target/ci-prof-j1/fig5_handoff.tsv
cmp target/ci-prof-j1/profile.json target/ci-prof-j4/profile.json
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
doc = json.load(open("target/ci-prof-j1/profile.json"))
assert doc["version"] == 2, f"unexpected profile schema version {doc['version']}"
labels = [entry["label"] for entry in doc["labels"]]
assert labels == sorted(labels), "profile labels not sorted"
assert len(labels) >= 13, f"expected a profile per registered lock kind, got {labels}"
for entry in doc["labels"]:
    assert entry["events"] > 0, f"{entry['label']}: empty profile"
    lock = entry["locks"][0]
    for key in ("acquires", "local_handoffs", "remote_handoffs", "chains",
                "node_acquires", "cpu_acquires", "residency_runs", "wait", "phases"):
        assert key in lock, f"{entry['label']}: profile missing {key}"
    # In-repo lock kinds account every backoff cycle inside its acquire
    # window; a clamped window means the spin residual lost cycles.
    assert lock["phases"]["spin_clamped"] == 0, \
        f"{entry['label']}: {lock['phases']['spin_clamped']} clamped windows"
print(f"profile OK: {len(labels)} labels, schema v{doc['version']}")
EOF
else
    echo "python3 not found; skipping profile JSON validation"
fi

echo "==> handoff artifact smoke (deterministic across --jobs)"
./target/release/experiments handoff --fast --jobs 1 \
    --out target/ci-handoff-j1 --profile target/ci-handoff-j1/profile.json >/dev/null
./target/release/experiments handoff --fast --jobs 4 \
    --out target/ci-handoff-j4 >/dev/null
cmp target/ci-handoff-j1/handoff.tsv target/ci-handoff-j4/handoff.tsv
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
# handoff profiles its own machines, one per kind and CPU count, so its
# document has one non-empty label per registered kind.
doc = json.load(open("target/ci-handoff-j1/profile.json"))
labels = [entry["label"] for entry in doc["labels"]]
assert len(labels) == 13, f"expected 13 handoff labels, got {labels}"
for entry in doc["labels"]:
    assert entry["events"] > 0, f"{entry['label']}: empty profile"
# The artifact's headline: HBO-family node-handoff locality beats the
# node-blind locks at the sweep's top CPU count.
rows = [line.rstrip("\n").split("\t")
        for line in open("target/ci-handoff-j1/handoff.tsv")]
header, body = rows[0], rows[1:]
rate_col = header.index("Remote Rate")
cpu_col = header.index("CPUs")
top = max(int(r[cpu_col]) for r in body)
rate = {r[0]: float(r[rate_col]) for r in body if int(r[cpu_col]) == top}
for nuca in ("HBO", "HBO_GT", "HBO_GT_SD"):
    for blind in ("MCS", "CLH", "TATAS"):
        assert rate[nuca] < rate[blind], \
            f"{nuca} remote rate {rate[nuca]} not below {blind} {rate[blind]}"
print(f"handoff OK at {top} cpus: HBO_GT_SD {rate['HBO_GT_SD']:.2f} "
      f"vs MCS {rate['MCS']:.2f} vs TATAS {rate['TATAS']:.2f}")
EOF
fi

echo "==> profiler memory-budget regression (full-scale cell, release)"
cargo test --release -q -p nuca-experiments --lib -- --ignored \
    full_scale_profile_memory_stays_bounded

echo "==> lockserver smoke (deterministic across --jobs, flag usage errors)"
./target/release/experiments lockserver --fast --jobs 1 \
    --out target/ci-lockserver-j1 >/dev/null
./target/release/experiments lockserver --fast --jobs 4 \
    --out target/ci-lockserver-j4 >/dev/null
cmp target/ci-lockserver-j1/lockserver.tsv target/ci-lockserver-j4/lockserver.tsv
for bad in "--shards 0" "--zipf 1.5" "--arrival-gap 0"; do
    # shellcheck disable=SC2086  # word-splitting the flag+operand is the point
    if ./target/release/experiments lockserver --fast $bad >/dev/null 2>&1; then
        echo "expected \`$bad\` to be rejected as a usage error"
        exit 1
    fi
done
./target/release/experiments lockserver --fast --jobs 2 \
    --shards 4 --zipf 0.5 --arrival-gap 8000 \
    --out target/ci-lockserver-flags >/dev/null

echo "==> showdown smoke (deterministic across --jobs, --kinds flag)"
./target/release/experiments showdown --fast --jobs 1 \
    --out target/ci-showdown-j1 >/dev/null
./target/release/experiments showdown --fast --jobs 4 \
    --out target/ci-showdown-j4 >/dev/null
cmp target/ci-showdown-j1/showdown.tsv target/ci-showdown-j4/showdown.tsv
if ./target/release/experiments showdown --fast --kinds QOLB >/dev/null 2>&1; then
    echo "expected an unregistered --kinds name to be rejected as a usage error"
    exit 1
fi
if ./target/release/experiments showdown --fast --kinds "MCS,,CLH" >/dev/null 2>&1; then
    echo "expected an empty --kinds entry to be rejected as a usage error"
    exit 1
fi
# --kinds narrows the sweep and is flag-order-insensitive: the selection
# is normalized to catalog registration order before any job runs.
./target/release/experiments showdown --fast --jobs 2 --kinds CNA,MCS \
    --out target/ci-showdown-k1 >/dev/null
./target/release/experiments showdown --fast --jobs 3 --kinds MCS,CNA \
    --out target/ci-showdown-k2 >/dev/null
cmp target/ci-showdown-k1/showdown.tsv target/ci-showdown-k2/showdown.tsv
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
# The headline table: every registered kind appears, the modern trio
# (CNA/TWA/RECIP) rides alongside the paper's eight, and no lock gets
# faster under the full fault stack.
rows = [line.rstrip("\n").split("\t")
        for line in open("target/ci-showdown-j1/showdown.tsv")]
header, body = rows[0], rows[1:]
kinds = {r[0] for r in body}
for required in ("TATAS", "MCS", "HBO_GT_SD", "TICKET", "HIER",
                 "CNA", "TWA", "RECIP"):
    assert required in kinds, f"showdown missing {required} rows"
deg_col = header.index("degradation")
for r in body:
    assert float(r[deg_col]) >= 1.0, \
        f"{r[0]} at {r[header.index('CPUs')]} cpus sped up under faults"
print(f"showdown OK: {len(kinds)} kinds x {len(body)//len(kinds)} cpu counts")
EOF
fi

echo "==> protocol smoke (flat default byte-identity, MESI/Dragon determinism, falsesharing headline)"
# The flat default and an explicit --protocol flat are the same model:
# every artifact TSV must be byte-identical to the default-run output.
./target/release/experiments colloc fig5 --fast --jobs 2 --protocol flat \
    --out target/ci-proto-flat >/dev/null
cmp target/ci-experiments/colloc.tsv target/ci-proto-flat/colloc.tsv
cmp target/ci-experiments/fig5_time.tsv target/ci-proto-flat/fig5_time.tsv
cmp target/ci-experiments/fig5_handoff.tsv target/ci-proto-flat/fig5_handoff.tsv
# MESI runs obey the same determinism contract as flat ones: byte-identical
# across --jobs (and the protocol must actually change the numbers).
./target/release/experiments falsesharing colloc --fast --jobs 1 --protocol mesi \
    --out target/ci-proto-mesi-j1 >/dev/null
./target/release/experiments falsesharing colloc --fast --jobs 4 --protocol mesi \
    --out target/ci-proto-mesi-j4 >/dev/null
cmp target/ci-proto-mesi-j1/falsesharing.tsv target/ci-proto-mesi-j4/falsesharing.tsv
cmp target/ci-proto-mesi-j1/falsesharing_twa.tsv target/ci-proto-mesi-j4/falsesharing_twa.tsv
cmp target/ci-proto-mesi-j1/colloc.tsv target/ci-proto-mesi-j4/colloc.tsv
if cmp -s target/ci-proto-mesi-j1/colloc.tsv target/ci-experiments/colloc.tsv; then
    echo "expected --protocol mesi to change the colloc numbers"
    exit 1
fi
for bad in "--protocol splay" "--binding diagonal" "--twa-slots 0" \
    "--twa-slots 99999999999" "--twa-hash xor" "--sched heap"; do
    # shellcheck disable=SC2086  # word-splitting the flag+operand is the point
    if ./target/release/experiments colloc --fast $bad >/dev/null 2>&1; then
        echo "expected \`$bad\` to be rejected as a usage error"
        exit 1
    fi
done
./target/release/experiments fig5 --fast --jobs 2 --binding clustered \
    --twa-slots 64 --twa-hash stride --out target/ci-proto-flags >/dev/null
# Faults under the set-associative protocols: robustness injects thread
# migrations, which move CPUs between the per-node sharer masks. The
# faulted sweep must stay byte-identical across --jobs under each.
for proto in mesi dragon; do
    for jobs in 1 4; do
        ./target/release/experiments robustness --fast --jobs "$jobs" --protocol "$proto" \
            --out "target/ci-rob-$proto-j$jobs" >/dev/null
    done
    cmp "target/ci-rob-$proto-j1/robustness.tsv" "target/ci-rob-$proto-j4/robustness.tsv"
done
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
# The falsesharing headline: under MESI the colocated layout pays for
# sharing the lock's cache line (time and global transactions), while
# the word-granular flat model shows a zero gap by construction.
rows = [line.rstrip("\n").split("\t")
        for line in open("target/ci-experiments/falsesharing.tsv")]
header, body = rows[0], rows[1:]
cell = {r[0]: r for r in body}
fns, fgt = header.index("flat ns/acq"), header.index("flat gtxn")
mns, mgt = header.index("mesi ns/acq"), header.index("mesi gtxn")
for kind in ("TATAS_EXP", "HBO_GT", "MCS"):
    co, pad = cell[f"{kind} colocated"], cell[f"{kind} padded"]
    assert co[fns] == pad[fns] and co[fgt] == pad[fgt], \
        f"{kind}: flat model sees the layout ({co[fns]} vs {pad[fns]})"
co, pad = cell["TATAS_EXP colocated"], cell["TATAS_EXP padded"]
ratio = float(co[mns]) / float(pad[mns])
assert ratio > 1.03, f"MESI colocated/padded ns ratio {ratio:.3f}: no false-sharing cost"
assert int(co[mgt]) > int(pad[mgt]), \
    f"MESI colocation added no global traffic ({co[mgt]} vs {pad[mgt]})"
print(f"falsesharing OK: flat gap 0, MESI colocated/padded {ratio:.2f}x "
      f"({co[mgt]} vs {pad[mgt]} gtxn)")
EOF
fi

echo "==> million-lock memory regression (tiered per-lock stats, release)"
cargo test --release -q -p nucasim --lib -- --ignored \
    million_lock_indices_stay_bounded

echo "==> model checker smoke (exhaustive pass, mutants caught, usage errors)"
out=$(./target/release/nuca-mcheck --kind all --cpus 2 2>&1)
echo "$out" | tail -1
if ! grep -q "checked 13 subject" <<<"$out"; then
    echo "expected --kind all to exhaust every registered kind (13 subjects)"
    exit 1
fi
for mutant in racy_tatas leaky_hbo_gt; do
    if out=$(./target/release/nuca-mcheck --kind "$mutant" 2>/dev/null); then
        echo "expected the $mutant mutant to fail the checker"
        exit 1
    fi
    if ! grep -q "counterexample for" <<<"$out"; then
        echo "expected a rendered counterexample for $mutant"
        exit 1
    fi
done
# The CNA splice mutant drops the secondary queue on handoff; two CPUs
# never populate it, so the checker needs a third to expose the loss.
if out=$(./target/release/nuca-mcheck --kind splice_lost_cna --cpus 3 2>/dev/null); then
    echo "expected the splice_lost_cna mutant to fail the checker at 3 cpus"
    exit 1
fi
if ! grep -q "counterexample for" <<<"$out"; then
    echo "expected a rendered counterexample for splice_lost_cna"
    exit 1
fi
if ./target/release/nuca-mcheck --cpus two >/dev/null 2>&1; then
    echo "expected non-numeric --cpus to be rejected as a usage error"
    exit 1
fi
if ./target/release/nuca-mcheck --frobnicate >/dev/null 2>&1; then
    echo "expected an unknown flag to be rejected as a usage error"
    exit 1
fi
./target/release/nuca-mcheck --kind hbo --random 200 --seed 7 >/dev/null
# Bound 0 (non-preemptive schedules only) is a real bound, not a usage error.
./target/release/nuca-mcheck --kind tatas --preempt 0 >/dev/null

echo "==> model checker state counts at the benchmark's arguments"
# Every subject, run with its arguments from hbobench/expected.json, must
# pass exhaustively with exactly the distinct-state count recorded there
# and the transition count pinned below: equal states alone would not
# show a search that reaches them along different edges.
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json, re, subprocess, sys
TRANSITIONS = {
    "TATAS": 492, "TATAS_EXP": 5646, "MCS": 25647, "CLH": 3564, "RH": 4431,
    "HBO": 8754, "HBO_GT": 29880, "HBO_GT_SD": 3643, "TICKET": 4866,
    "HIER": 9699, "CNA": 115163, "TWA": 116868, "RECIP": 120135,
}
mcheck = json.load(open("hbobench/expected.json"))["mcheck"]
bad = []
for subject, args in mcheck["args"].items():
    out = subprocess.run(["./target/release/nuca-mcheck", *args],
                         capture_output=True, text=True).stdout
    m = re.search(rf"^{re.escape(subject)}\s.*: PASS  \(exhaustive\) "
                  r"states=(\d+) transitions=(\d+)", out, re.M)
    got = (int(m.group(1)), int(m.group(2))) if m else (None, None)
    want = (mcheck["states"].get(subject), TRANSITIONS.get(subject))
    if got != want:
        bad.append(f"{subject}: states={got[0]} transitions={got[1]}, "
                   f"expected states={want[0]} transitions={want[1]}")
if set(mcheck["args"]) != set(mcheck["states"]):
    bad.append("hbobench/expected.json: mcheck.args and mcheck.states name different subjects")
if set(mcheck["args"]) != set(TRANSITIONS):
    bad.append("ci.sh: TRANSITIONS and hbobench/expected.json name different subjects")
if bad:
    print("\n".join(bad))
    sys.exit(1)
print(f"mcheck counts OK: {len(mcheck['args'])} subjects match hbobench/expected.json "
      f"and {sum(TRANSITIONS.values())} pinned transitions")
EOF
else
    echo "python3 not found; skipping the mcheck state-count check"
fi

echo "==> model checker at 4 CPUs x 2 iterations"
# One notch past the benchmark's arguments: each subject must pass
# exhaustively with exactly this many distinct states (about 4 s in all).
# RH runs first, so the children's peak resident memory read right after
# it is RH's own. The search keeps bare state keys and reuses its
# snapshots, so RH peaks near 56 MiB (104 MiB with a depth beside every
# key and a fresh snapshot per branching state); above 80 MiB, the search
# has started to spend memory per state again. This step needs python3.
python3 - <<'EOF'
import re, resource, subprocess, sys
PINNED = {"RH": 2864650, "MCS": 535174, "HBO_GT": 620188}
RH_PEAK_MIB = 80
for kind, states in PINNED.items():
    run = subprocess.run(["./target/release/nuca-mcheck", "--kind", kind,
                          "--cpus", "4", "--iters", "2"],
                         capture_output=True, text=True)
    out = run.stdout + run.stderr
    if not re.search(rf"^{kind} +cpus=4 iters=2: PASS  \(exhaustive\) "
                     rf"states={states} ", out, re.M):
        print(f"expected {kind} at 4 cpus x 2 iterations to pass exhaustively "
              f"with states={states}, got:\n{out}")
        sys.exit(1)
    if kind == "RH":
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        if peak > RH_PEAK_MIB:
            print(f"RH at 4 cpus x 2 iterations peaked at {peak:.1f} MiB "
                  f"(limit {RH_PEAK_MIB} MiB)")
            sys.exit(1)
        print(f"RH at 4 cpus x 2 iterations peaked at {peak:.1f} MiB")
print("mcheck 4-cpu counts OK")
EOF

echo "==> coherence cell digests at the benchmark's seed"
# Every protocol/KIND/critical_work cell of the benchmark's coherence grid
# must report exactly the elapsed time and traffic recorded in
# hbobench/expected.json (read, never rewritten here).
cargo build --offline --release --manifest-path hbobench/Cargo.toml
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json, subprocess, sys
coherence = json.load(open("hbobench/expected.json"))["coherence"]
out = subprocess.run(["hbobench/target/release/hbo-bench", "coherence",
                      "--seed", str(coherence["seed"]), "--seconds", "0.001"],
                     capture_output=True, text=True, check=True).stdout
cells = {f"{p}/{k}/{cw}": f"{e} {l} {g}"
         for p, k, cw, e, l, g in json.loads(out.strip().splitlines()[-1])["cells"]}
expected = coherence["cells"]
bad = sorted(k for k in set(cells) | set(expected) if cells.get(k) != expected.get(k))
if bad:
    for k in bad:
        print(f"{k}: got {cells.get(k)}, expected {expected.get(k)}")
    sys.exit(1)
print(f"coherence digests OK: {len(cells)} cells match hbobench/expected.json")
EOF
else
    echo "python3 not found; skipping the coherence digest check"
fi

echo "==> ci OK"
