#!/usr/bin/env bash
# Interleaved A/B runs of fgqos-bench: <git-ref> (the parent) against the
# working tree (the change), the protocol behind every speed table in
# EXPERIMENTS.md.
#
#   scripts/bench-pair.sh <git-ref> <workload> [pairs]      (default 10)
#   SEED=31337 SECONDS_PER_RUN=10 TRACE=0 METRICS="wall_s sim_cycles_per_s"
#
# Stage level (a traced run prints the per-layer metrics, not the end-to-end
# ones), e.g. the checkpoint round trip of ckpt_epoch:
#   TRACE=1 METRICS="snap.snapshot_us snap.to_bytes_us snap.from_bytes_us snap.restore_us snap.blob_bytes"
#
# The parent's tree is unpacked from git into the ignored .bench_build/ and
# both sides are built there; the runs are the command of BENCHMARK.json,
# unchanged, each from the root of its own tree, parent first, alternating.
# Prints, per metric, a markdown row: median [q1, q3] of each side, the ratio
# of the medians and how many pairs the change won (`*_per_s` and `*_rate`
# count higher as better, everything else lower). Every run's output stays in
# .bench_build/pairs/. Building the benchmark package rewrites its Cargo.lock;
# the working tree's copy is restored on exit.
set -euo pipefail

[ $# -ge 2 ] || { sed -n '2,20p' "$0" >&2; exit 2; }
ref=$1
workload=$2
pairs=${3:-10}
seed=${SEED:-31337}
seconds=${SECONDS_PER_RUN:-10}
trace=${TRACE:-0}
metrics=${METRICS:-sim_cycles_per_s wall_s cpu_s setup_s ops_per_s peak_rss_mib}

root=$(git rev-parse --show-toplevel)
cd "$root"
pkg=crates/bench/src/bin/fgqos-bench
sha=$(git rev-parse --short "$ref^{commit}")
build=$root/.bench_build
parent=$build/tree-$sha
logs=$build/pairs/$workload-$sha-seed$seed-trace$trace
trap 'git -C "$root" checkout -q -- "$pkg/Cargo.lock"' EXIT

if [ ! -d "$parent" ]; then
    mkdir -p "$parent"
    git archive "$sha" | tar -x -C "$parent"
fi
rm -rf "$logs" && mkdir -p "$logs"

# cargo <$3> of the benchmark package in tree $1 with target directory $2.
bench() {
    (cd "$1" && CARGO_TARGET_DIR=$2 cargo "$3" --release --offline --quiet \
        --manifest-path "$pkg/Cargo.toml" "${@:4}")
}
run() {
    bench "$1" "$2" run -- --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace"
}

echo "# $workload, seed $seed, $seconds s per run, trace $trace: building $sha and the working tree" >&2
bench "$parent" "$build/target-$sha" build
bench "$root" "$build/target-change" build
for i in $(seq "$pairs"); do
    run "$parent" "$build/target-$sha" >"$logs/parent-$i.txt"
    run "$root" "$build/target-change" >"$logs/change-$i.txt"
    echo "# pair $i of $pairs done" >&2
done

# Values of metric $2 on side $1, in pair order.
values() {
    for i in $(seq "$pairs"); do
        awk -v m="$2" '$1 == m { print $2; found = 1 } END { exit !found }' "$logs/$1-$i.txt"
    done
}
# "median [q1, q3]" of the values on stdin, then the bare median; quartiles by
# linear interpolation between order statistics (plain awk: no asort).
spread() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,  h, lo) { h = (NR - 1) * p + 1; lo = int(h)
            return (lo >= NR) ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
        END { printf "%.4g [%.4g, %.4g]\t%.9g\n", q(.5), q(.25), q(.75), q(.5) }'
}
echo "| \`$workload\` | parent $sha | change | change/parent | wins |"
echo "|---|---|---|---|---|"
for m in $metrics; do
    IFS=$'\t' read -r a_text a_med < <(values parent "$m" | spread)
    IFS=$'\t' read -r b_text b_med < <(values change "$m" | spread)
    paste <(values parent "$m") <(values change "$m") |
        awk -v m="$m" -v a="$a_text" -v b="$b_text" -v am="$a_med" -v bm="$b_med" '
            { wins += (m ~ /_per_s$|_rate$/) ? ($2 > $1) : ($2 < $1) }
            END { printf "| `%s` | %s | %s | %.3f | %d/%d |\n", m, a, b, bm / am, wins, NR }'
done
