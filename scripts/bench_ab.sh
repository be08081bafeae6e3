#!/usr/bin/env bash
# A/B-measures the repo benchmark between a base commit and this checkout.
#
#   scripts/bench_ab.sh <base-ref> [workload...]
#
# Builds crates/bench/src/bin/benchmark twice — at <base-ref>, from a
# `git archive` export, and from this checkout, which must be a clean
# checkout of HEAD — into two separate target directories, then runs the two binaries as alternating
# pairs (base first on even pairs, change first on odd ones) over a fixed
# seed list, one workload at a time.  For every end-to-end metric of
# BENCHMARK.json it prints each side's median and quartiles, the pair wins,
# and a verdict by the rule of the choosing-metrics guide (section 8): a
# gain is claimable only when the change wins at least nine tenths of the
# pairs (ties count for neither side) and the medians differ by more than
# the distance between the base's own quartiles.
#
# The benchmark sources of *this checkout* are used on both sides (a change
# that claims a gain may not edit them), so a base that predates a
# benchmark-only commit still measures with today's benchmark.
#
# After the tables, the same numbers are appended as one line — one JSON
# object, described in docs/METRICS.md — to BENCH_e2e.json at the repo
# root: the ledger of before/after pairs.  A record names its change by
# commit hash, so the script refuses to run (exit 2) while `git status`
# shows anything but the ledger itself as modified or untracked: commit the
# change, measure it, then commit the line.
#
# Environment: PAIRS (default 10, the minimum for a claim), RUN_SECONDS
# (default: BENCHMARK.json's run_seconds), BENCH_AB_DIR (default
# target/bench_ab: builds, base export, raw results).  Exit 1 if any run
# reported a failed correctness check, 2 on usage errors and on a dirty
# working tree.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

if [ $# -lt 1 ]; then
    sed -n '2,6p' "$0" >&2
    exit 2
fi
base_ref=$1
shift
pairs=${PAIRS:-10}
out=${BENCH_AB_DIR:-$root/target/bench_ab}
seeds=(1 2 3 4 5 6 7 8 9 10)
bench_rel=crates/bench/src/bin/benchmark

read -r default_seconds all_workloads < <(python3 - <<'EOF'
import json
spec = json.load(open("BENCHMARK.json"))
print(spec["run_seconds"], " ".join(w["name"] for w in spec["workloads"]))
EOF
)
seconds=${RUN_SECONDS:-$default_seconds}
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    read -r -a workloads <<<"$all_workloads"
fi

base_commit=$(git rev-parse --verify "$base_ref^{commit}") || {
    echo "bench_ab: $base_ref is not a commit" >&2
    exit 2
}
if [ -n "$(git status --porcelain -- . ':!BENCH_e2e.json')" ]; then
    echo "bench_ab: the working tree differs from HEAD, and a ledger record names its change by commit: commit first" >&2
    exit 2
fi
mkdir -p "$out"
base_src=$out/base-src
# An export, not a worktree: nothing is registered in .git, so an
# interrupted run leaves only files under $out behind.
rm -rf "$base_src"
mkdir -p "$base_src"
git archive "$base_commit" | tar -x -C "$base_src"
# Same benchmark code on both sides.
rm -rf "${base_src:?}/$bench_rel"
cp -R "$root/$bench_rel" "$base_src/$bench_rel"

build() { # <source root> <target dir>
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path "$1/$bench_rel/Cargo.toml"
}
echo "bench_ab: building base $(git rev-parse --short "$base_commit") and change (this checkout)" >&2
build "$base_src" "$out/base-target"
build "$root" "$out/change-target"

results=$out/results.tsv
: >"$results"
run() { # <side> <workload> <pair> <seed>
    local line
    # The last stdout line is the run's JSON result object; a failed
    # correctness check exits 1 and is recorded, not fatal to the sweep.
    line=$(CARGO_TARGET_DIR=$out/$1-target "$out/$1-target/release/benchmark" \
        --workload "$2" --seed "$4" --seconds "$seconds" --trace 0 | tail -n1) || true
    printf '%s\t%s\t%s\t%s\t%s\n' "$2" "$3" "$1" "$4" "$line" >>"$results"
}
for workload in "${workloads[@]}"; do
    for ((pair = 0; pair < pairs; pair++)); do
        seed=${seeds[pair % ${#seeds[@]}]}
        if ((pair % 2 == 0)); then order=(base change); else order=(change base); fi
        echo "bench_ab: $workload pair $((pair + 1))/$pairs seed $seed (${order[*]})" >&2
        for side in "${order[@]}"; do
            run "$side" "$workload" "$pair" "$seed"
        done
    done
done

change_commit=$(git rev-parse HEAD)
python3 - "$results" "$base_commit" "$change_commit" "$(nproc)" "$pairs" "$seconds" <<'EOF'
import json, statistics, sys
from collections import defaultdict

spec = json.load(open("BENCHMARK.json"))
runs = defaultdict(dict)  # (workload, pair) -> side -> result object
failed = 0
for row in open(sys.argv[1]):
    workload, pair, side, seed, line = row.rstrip("\n").split("\t")
    try:
        result = json.loads(line)
    except ValueError:
        result = {"correct": False, "metrics": {}}
    failed += not result.get("correct", False)
    runs[(workload, int(pair))][side] = result

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3

record = {"base": sys.argv[2], "change": sys.argv[3], "host_cores": int(sys.argv[4]),
          "pairs": int(sys.argv[5]), "run_seconds": float(sys.argv[6]),
          "failed_runs": failed, "workloads": defaultdict(dict)}
workloads = list(dict.fromkeys(w for w, _ in runs))
for workload in workloads:
    pairs = [runs[key] for key in sorted(k for k in runs if k[0] == workload)]
    print(f"\n== {workload}: {len(pairs)} pairs ==")
    print(f"{'metric':<22}{'base median [q1, q3]':<40}{'change median [q1, q3]':<40}"
          f"{'change':>9}  wins b/c/tie  verdict")
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        both = [(p["base"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                for p in pairs
                if all(p.get(s, {}).get("metrics", {}).get(name, {}).get("value") is not None
                       for s in ("base", "change"))]
        if not both:
            print(f"{name:<22}no complete pair")
            continue
        base, change = [b for b, _ in both], [c for _, c in both]
        better = (lambda new, old: new > old) if higher else (lambda new, old: new < old)
        change_wins = sum(better(c, b) for b, c in both)
        base_wins = sum(better(b, c) for b, c in both)
        ties = len(both) - change_wins - base_wins
        b1, bm, b3 = quartiles(base)
        c1, cm, c3 = quartiles(change)
        relative = (cm - bm) / abs(bm) if bm else 0.0
        worse_by = -relative if higher else relative
        spread = (b3 - b1) / abs(bm) if bm else 0.0
        apart = min(change) > max(base) if higher else max(change) < min(base)
        if base == change:
            verdict = "identical"
        elif (len(both) >= 10 and change_wins >= 0.9 * len(both)
              and better(cm, bm) and abs(cm - bm) > b3 - b1):
            verdict = "gain"
        elif spread > metric["bound"] and not apart:
            verdict = "unresolved (base spread exceeds the bound)"
        elif worse_by > metric["bound"]:
            verdict = "REGRESSION beyond the bound"
        else:
            verdict = "within the bound"
        fmt = lambda m, lo, hi: f"{m:.6g} [{lo:.6g}, {hi:.6g}]"
        print(f"{name:<22}{fmt(bm, b1, b3):<40}{fmt(cm, c1, c3):<40}"
              f"{relative:>+8.1%}  {base_wins}/{change_wins}/{ties}".ljust(126) + f"  {verdict}")
        record["workloads"][workload][name] = {
            "base": [b1, bm, b3], "change": [c1, cm, c3],
            "wins": {"base": base_wins, "change": change_wins, "tie": ties},
            "verdict": verdict}
with open("BENCH_e2e.json", "a") as ledger:
    ledger.write(json.dumps(record) + "\n")
print("\nbench_ab: record appended to BENCH_e2e.json", file=sys.stderr)
if failed:
    print(f"\nbench_ab: {failed} run(s) failed a correctness check", file=sys.stderr)
    sys.exit(1)
EOF
