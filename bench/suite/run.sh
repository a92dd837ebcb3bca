#!/usr/bin/env bash
# The repository benchmark, in one command.
#
#   bench/suite/run.sh [--seed S] [--label L] [--runs N]
#       Build a Release tree of the checked-out commit, build bench_suite
#       against it, run every workload in its own process (N untraced
#       runs, then one traced run) for BENCHMARK.json's run_seconds, print
#       every metric with its unit, and write
#       bench/suite/results/BENCH_<label>.json.
#
#   bench/suite/run.sh --workload W --seed S --seconds T --trace 0|1
#       Build if needed, then run one workload (the BENCHMARK.json
#       command). The last stdout line is the JSON result.
#
#   bench/suite/run.sh --compare BASE.json CAND.json
#       Compare two BENCH files with the directions and bounds of
#       BENCHMARK.json; exits 3 on a regression.
#
# Build trees go to $CARGO_TARGET_DIR (default .bench_build) and scratch
# files to .bench_run, both under the checkout root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
jobs="$(nproc 2>/dev/null || echo 2)"
bin="$build/suite/bench_suite"

build_suite() {
    mkdir -p "$build"
    local log="$build/build.log"
    if ! {
        if [ ! -f "$build/repo/CMakeCache.txt" ]; then
            cmake -S "$root" -B "$build/repo" -G "Unix Makefiles" \
                -DCMAKE_BUILD_TYPE=Release
        fi &&
        # Every library under src/, whatever the commit calls them.
        make -C "$build/repo/src" -j"$jobs" &&
        # When the build system was regenerated (first build, or a commit
        # that changed the CMake files), a library may have gone: clear
        # every archive once so only the current targets' ones exist. The
        # objects are up to date, so the second make only re-archives.
        if [ ! "$build/archives.stamp" -nt \
               "$build/repo/CMakeFiles/TargetDirectories.txt" ]; then
            find "$build/repo/src" -name '*.a' -delete &&
            make -C "$build/repo/src" -j"$jobs" &&
            touch "$build/archives.stamp"
        fi &&
        if [ ! -f "$build/suite/CMakeCache.txt" ]; then
            cmake -S "$here" -B "$build/suite" -DCMAKE_BUILD_TYPE=Release \
                -DMAPZERO_ROOT="$root" -DMAPZERO_LIB_DIR="$build/repo/src"
        fi &&
        cmake --build "$build/suite" -j"$jobs"
    } >"$log" 2>&1; then
        tail -n 40 "$log" >&2
        echo "run.sh: build failed (full log: $log)" >&2
        exit 1
    fi
}

run_bench() {
    "$bin" --benchmark "$root/BENCHMARK.json" --work-dir "$root/.bench_run" "$@"
}

for arg in "$@"; do
    case "$arg" in
        --workload|--compare|--list)
            build_suite
            cd "$root"
            exec "$bin" --benchmark "$root/BENCHMARK.json" \
                --work-dir "$root/.bench_run" "$@"
            ;;
    esac
done

seed=1
label=local
runs=1
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --label) label="$2"; shift 2 ;;
        --runs) runs="$2"; shift 2 ;;
        *) echo "usage: $0 [--seed S] [--label L] [--runs N]" >&2
           exit 2 ;;
    esac
done

build_suite
cd "$root"
out_dir="$here/results"
mkdir -p "$out_dir"
out="$out_dir/BENCH_$label.json"
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
cpu="$(grep -m1 'model name' /proc/cpuinfo 2>/dev/null | cut -d: -f2- | sed 's/^ *//' || true)"
mkdir -p "$root/.bench_run"
tmp="$(mktemp "$root/.bench_run/result.XXXXXX")"
trap 'rm -f "$tmp"' EXIT

# A run that fails its checks still contributes its result line (the
# compare gate flags it); one that prints no result is left out. Either
# makes this script exit non-zero once every run is done.
status=0
entries=()
for workload in $(run_bench --list); do
    for trace in 0 1; do
        count=$runs
        [ "$trace" = 1 ] && count=1
        for ((i = 0; i < count; i++)); do
            echo "== $workload seed=$seed trace=$trace run $((i + 1))/$count" >&2
            run_bench --workload "$workload" --seed "$seed" --trace "$trace" |
                tee "$tmp" || status=1
            result="$(tail -n 1 "$tmp")"
            case "$result" in
                '{"correct": '*)
                    entries+=("{\"workload\": \"$workload\", \"seed\": $seed, \"trace\": $trace, \"result\": $result}") ;;
                *) status=1 ;;
            esac
        done
    done
done

{
    printf '{"label": "%s", "commit": "%s", "cpus": %s, "cpu": "%s",\n "runs": [\n' \
        "$label" "$commit" "$jobs" "${cpu//\"/}"
    for i in "${!entries[@]}"; do
        sep=","
        [ "$i" -eq $((${#entries[@]} - 1)) ] && sep=""
        printf '  %s%s\n' "${entries[$i]}" "$sep"
    done
    printf ' ]}\n'
} >"$out"
echo "wrote $out" >&2
exit $status
