#!/bin/sh
# Refresh one BENCH_<NAME>.json: bench/run.sh NAME [extra bench flags].
# NAME picks a bench target and its fixed flags (table below; each bench's
# header comment says what it measures). Benchmark numbers from an
# unoptimized tree are noise, so only a Release tree is used:
# $SIMPROF_BENCH_BUILD, default build-release, configured on demand. The
# bench runs with --manifest-out, and BENCH_<NAME>.json becomes its own
# output plus a "manifest" key holding the run manifest: provenance, every
# counter and quantile histogram, the span rollup and the figures the bench
# derives (speedups etc., also printed at the end of its run). Exits with
# the bench's exit code.
set -e
cd "$(dirname "$0")/.."

name=$1
[ -n "$name" ] && shift
out=BENCH_$name.json
case $name in
  checkpoint) target=perf_checkpoint ;;
  estimators) target=perf_estimators ;;
  lab_pipeline) target=perf_lab ;;
  oracle) target=perf_oracle ;;
  phase_formation)
    target=perf_core
    set -- --benchmark_filter='BM_KMeans|BM_ChooseK|BM_Silhouette|BM_FormPhases' "$@" ;;
  service) target=perf_service ;;
  *) echo "usage: bench/run.sh checkpoint|estimators|lab_pipeline|oracle|phase_formation|service [flags]" >&2
     exit 2 ;;
esac
case $target in
  perf_estimators | perf_oracle | perf_service)
    set -- --log-level warn --out "$out" "$@" ;;
  *) set -- --benchmark_out="$out" --benchmark_out_format=json "$@" ;;
esac

build=${SIMPROF_BENCH_BUILD:-build-release}
[ -f "$build/CMakeCache.txt" ] ||
  cmake -B "$build" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$build/CMakeCache.txt")
if [ "$build_type" != "Release" ]; then
  echo "bench: FATAL: $build has CMAKE_BUILD_TYPE='$build_type'; benchmarks" \
    "need a Release tree (reconfigure with -DCMAKE_BUILD_TYPE=Release or" \
    "point SIMPROF_BENCH_BUILD at one)" >&2
  exit 1
fi
echo "bench: building $target ($build, $build_type)" >&2
cmake --build "$build" -j --target "$target" >/dev/null

# The compiled-in sha dates from the last configure; stamp HEAD instead.
SIMPROF_GIT_SHA=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
export SIMPROF_GIT_SHA

manifest=$(mktemp)
trap 'rm -f "$manifest"' EXIT
rc=0
"$build/bench/$target" --manifest-out "$manifest" "$@" || rc=$?

# A bench that died before writing its manifest leaves nothing to fold.
if [ -s "$manifest" ]; then
  python3 - "$out" "$manifest" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    bench = json.load(f)
with open(sys.argv[2]) as f:
    bench["manifest"] = json.load(f)
with open(sys.argv[1], "w") as f:
    json.dump(bench, f, indent=1)
    f.write("\n")
print("bench: wrote %s (bench output + run manifest)" % sys.argv[1])
EOF
fi
exit $rc
