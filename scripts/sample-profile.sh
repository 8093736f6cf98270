#!/usr/bin/env bash
# Per-function CPU profile of one fgqos-bench workload, for hosts without
# perf: which functions the samples fall in, outermost and innermost frame.
#
#   scripts/sample-profile.sh <workload> [seconds]      (default 10)
#   SEED=1 SAMPLER_US=1000 TOP=25
#
# Builds fgqos-bench from the working tree with line tables
# (CARGO_PROFILE_RELEASE_DEBUG=line-tables-only) into the ignored
# .bench_build/, runs it once under scripts/sampler.c (an LD_PRELOAD SIGPROF
# handler that records the interrupted instruction pointer), symbolizes every
# sample with llvm-symbolizer --inlining and prints three tables:
#   - outermost frame: the out-of-line function a sample is in (what an
#     `#[inline(never)]` boundary names);
#   - innermost frame: the source function its instruction was inlined from;
#   - outermost frame again, as shares of simulator time: the samples of the
#     benchmark's host-speed calibration bursts (any frame in
#     fgqos_bench::calib::Toy::burst) are left out of its rows and its total.
# The first two tables' shares are of all samples, calibration included;
# samples outside the binary count under their library's name. The kernel
# may round SAMPLER_US up to its timer tick. Needs gcc and
# llvm-symbolizer. Samples and symbolized frames stay in .bench_build/profile/.
# Building the benchmark package rewrites its Cargo.lock; the working tree's
# copy is restored on exit.
set -euo pipefail

[ $# -ge 1 ] || { sed -n '2,24p' "$0" >&2; exit 2; }
workload=$1
seconds=${2:-10}
seed=${SEED:-1}
top=${TOP:-25}

root=$(git rev-parse --show-toplevel)
cd "$root"
pkg=crates/bench/src/bin/fgqos-bench
build=$root/.bench_build
target=$build/target-lines
out=$build/profile/$workload-seed$seed
trap 'git -C "$root" checkout -q -- "$pkg/Cargo.lock"' EXIT
mkdir -p "$out"

echo "# $workload, seed $seed, $seconds s: building the working tree with line tables" >&2
gcc -O2 -shared -fPIC -o "$out/sampler.so" scripts/sampler.c -ldl
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR=$target \
    cargo build --release --offline --quiet --manifest-path "$pkg/Cargo.toml"
bin=$target/release/fgqos-bench
SAMPLER_OUT=$out/samples.txt LD_PRELOAD=$out/sampler.so \
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" >"$out/bench.txt"

# One paragraph per sample of the binary: function / file:line pairs,
# innermost frame first. What the demangler leaves of Rust's legacy
# mangling (a hash suffix, `$LT$impl$u20$a..B$GT$`) is spelled out.
awk -v b="$bin" '$1 == b { print $2 }' "$out/samples.txt" |
    llvm-symbolizer --obj="$bin" --inlining |
    sed -E 's/::h[0-9a-f]{16}$//; s/_?\$LT\$/</g; s/\$GT\$/>/g; s/\$u20\$/ /g; s/\$RF\$/\&/g
        s/\.\./::/g' >"$out/frames.txt"
total=$(wc -l <"$out/samples.txt")
calib='calib::Toy::burst'
bursts=$(awk -v RS= -v c="$calib" 'index($0, c) { n++ } END { print n + 0 }' "$out/frames.txt")

# Frame $1 (an awk field of a sample's paragraph) of every sample whose
# paragraph does not contain $2 (nothing skipped when empty), then the
# library of every sample outside the binary.
frames() {
    awk -v RS= -F '\n' -v skip="$2" "skip == \"\" || !index(\$0, skip) { print $1 }" \
        "$out/frames.txt"
    awk -v b="$bin" '$1 != b { n = split($1, p, "/"); print "[" p[n] "]" }' "$out/samples.txt"
}
# table <frame> <heading> <skip> <total>
table() {
    echo "| share | samples | $2 |"
    echo "|---:|---:|---|"
    frames "$1" "$3" | sort | uniq -c | sort -rn | head -n "$top" |
        awk -v t="$4" '{ c = $1; $1 = ""
            printf "| %.1f%% | %d | `%s` |\n", 100 * c / t, c, substr($0, 2) }'
}

echo "# $workload, seed $seed, $seconds s: $total samples"
table '$(NF - 1)' "outermost frame" "" "$total"
echo
table '$1' "innermost frame" "" "$total"
echo
echo "# simulator time: $((total - bursts)) samples, $bursts calibration samples left out"
table '$(NF - 1)' "outermost frame, simulator time" "$calib" "$((total - bursts))"
