#!/usr/bin/env bash
# Paired benchmark comparison of the working tree against a parent revision,
# in the format of docs/baselines/perf/README.md.
#
#   scripts/perf_pairs.sh [options] <parent-rev> <workload> <seed>...
#
# Options:
#   --metric NAME   metric whose per-pair wins are counted (default
#                   latency_p50_ms)
#   --trace         run with `--trace 1` (per-layer numbers)
#   --workdir DIR   keep the exported parent and both build directories in
#                   DIR and reuse them on the next call (default: a
#                   temporary directory, removed on exit)
#
# The parent is exported with `git archive` into the work directory. Each
# seed is one pair: the BENCHMARK.json command runs on the parent and on the
# working tree, and the side that goes first alternates from pair to pair.
# Every run lasts BENCHMARK.json's run_seconds. Each tree builds into its
# own CARGO_TARGET_DIR under the work directory, so nothing is written under
# perfbench/. Runs offline.
set -euo pipefail

metric=latency_p50_ms
trace=0
workdir=
while [ $# -gt 0 ]; do
    case "$1" in
        --metric) metric=$2; shift 2 ;;
        --trace) trace=1; shift ;;
        --workdir) workdir=$2; shift 2 ;;
        -h|--help) sed -n '2,20p' "$0"; exit 0 ;;
        --*) echo "unknown option $1" >&2; exit 2 ;;
        *) break ;;
    esac
done
if [ $# -lt 3 ]; then
    echo "usage: $0 [options] <parent-rev> <workload> <seed>..." >&2
    exit 2
fi
parent_rev=$1 workload=$2
shift 2
seeds=("$@")

repo=$(cd "$(dirname "$0")/.." && pwd)
if [ -z "$workdir" ]; then
    workdir=$(mktemp -d)
    trap 'rm -rf "$workdir"' EXIT
fi
mkdir -p "$workdir/parent" "$workdir/runs"
workdir=$(cd "$workdir" && pwd)

parent_sha=$(git -C "$repo" rev-parse "$parent_rev")
if [ "$(cat "$workdir/parent.sha" 2>/dev/null)" != "$parent_sha" ]; then
    rm -rf "$workdir/parent" && mkdir -p "$workdir/parent"
    git -C "$repo" archive "$parent_sha" | tar -x -C "$workdir/parent"
    echo "$parent_sha" > "$workdir/parent.sha"
fi

# The benchmark command, as BENCHMARK.json declares it.
mapfile -t cmd < <(python3 -c 'import json,sys; print("\n".join(json.load(open(sys.argv[1]))["command"]))' "$repo/BENCHMARK.json")
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$repo/BENCHMARK.json")

tree_of() { if [ "$1" = parent ]; then echo "$workdir/parent"; else echo "$repo"; fi; }

run_side() { # side seed
    local side=$1 seed=$2 out="$workdir/runs/$workload-$1-$2.txt"
    (cd "$(tree_of "$side")" && CARGO_TARGET_DIR="$workdir/target-$side" \
        "${cmd[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace") \
        > "$out"
    echo "  $side seed $seed: $(tail -n 1 "$out" | cut -c1-100)" >&2
}

echo "building both trees" >&2
for side in parent change; do
    (cd "$(tree_of "$side")" && CARGO_TARGET_DIR="$workdir/target-$side" \
        cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml \
        && CARGO_TARGET_DIR="$workdir/target-$side" \
        cargo build --release --offline --quiet -p valmod-cli)
done

for k in "${!seeds[@]}"; do
    if [ $((k % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do run_side "$side" "${seeds[$k]}"; done
done

python3 - "$repo/BENCHMARK.json" "$workdir/runs" "$workload" "$metric" "$trace" "${seeds[@]}" <<'EOF'
import json, statistics, sys

bench, runs, workload, claim, trace = sys.argv[1:6]
seeds = sys.argv[6:]
spec = json.load(open(bench))
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

def load(side, seed):
    lines = open(f"{runs}/{workload}-{side}-{seed}.txt").read().splitlines()
    record = next(json.loads(l)["record"] for l in lines if l.startswith('{"record"'))
    return record, json.loads(lines[-1])

res = {s: [load(s, seed) for seed in seeds] for s in ("parent", "change")}

def q(v):
    if len(v) == 1:
        return (v[0],) * 3
    a, b, c = statistics.quantiles(v, n=4, method="inclusive")
    return a, b, c

def fmt(x):
    return f"{x:.3f}" if abs(x) < 1 else f"{x:.2f}" if abs(x) < 100 else f"{x:.1f}"

print(f"## `{workload}` ({len(seeds)} pairs, seeds {' '.join(seeds)}; trace {trace})\n")
print("| metric | parent | change | median | wins |")
print("|---|---|---|---|---|")
names = list(res["parent"][0][1]["metrics"])
for name in names:
    pv = [r["metrics"][name]["value"] for _, r in res["parent"]]
    cv = [r["metrics"][name]["value"] for _, r in res["change"]]
    if not any(pv + cv):
        continue  # a layer this workload does not exercise
    qp, qc = q(pv), q(cv)
    rel = f"{(qc[1] / qp[1] - 1) * 100:+.1f}%" if qp[1] else "n/a"
    wins = ""
    if name in better:
        lower = better[name] == "lower"
        won = sum((c < p) if lower else (c > p) for p, c in zip(pv, cv))
        wins = f"{won}/{len(seeds)}"
    row = [name, " / ".join(map(fmt, qp)), " / ".join(map(fmt, qc)), rel, wins]
    print("| " + " | ".join(f"`{row[0]}`" if i == 0 else c for i, c in enumerate(row)) + " |")

if claim not in names:
    print(f"\n`{claim}` is not reported by these runs (`--metric` names another).")
else:
    pv = [r["metrics"][claim]["value"] for _, r in res["parent"]]
    cv = [r["metrics"][claim]["value"] for _, r in res["change"]]
    qp = q(pv)
    print(f"\n`{claim}` per pair (parent → change): "
          + ", ".join(f"{s} {fmt(p)} → {fmt(c)}" for s, p, c in zip(seeds, pv, cv)))
    print(f"Median gap {fmt(abs(statistics.median(pv) - statistics.median(cv)))} against the "
          f"parent's interquartile range {fmt(qp[2] - qp[0])}.")
for side in ("parent", "change"):
    recs = [rec for rec, _ in res[side]]
    probes = [p for rec in recs for p in rec.get("host_probe_ms", [])]
    digests = sorted({rec.get("source_digest", "?") for rec in recs})
    ok = all(r.get("correct") for _, r in res[side])
    failed = sum(r.get("failed", 0) for _, r in res[side])
    print(f"- {side}: nproc {recs[0].get('nproc')}, source_digest {', '.join(digests)}, "
          f"host_probe_ms {min(probes):.1f}–{max(probes):.1f}, correct {ok}, failed {failed}")
EOF
