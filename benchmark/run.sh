#!/usr/bin/env bash
# The repository benchmark's one command: builds benchmark/ (a standalone
# CMake project over the parent checkout) in Release, runs each selected
# workload in its own process, prints every metric with its unit, and
# exits non-zero if any output fails verification.
#
#   bash benchmark/run.sh [--workload W] [--seed N] [--seconds S]
#                         [--trace 0|1] [--trace-dir DIR] [--json PATH]
#
# Workloads: raytrace, quicksort, kv-open, kv-drain (default: all four).
# --trace 1 is a separate traced run: per-layer metrics instead of the
# end-to-end ones, span self times, and a Chrome trace-event file per
# workload in DIR (default <build>/traces). With one workload the last
# output line is that workload's JSON result; with several it is one
# object whose metric names are prefixed "<workload>.". --json writes the
# host label plus every workload's result to PATH.
#
# The build directory is $CARGO_TARGET_DIR if set, else .bench_build,
# relative to the checkout root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac

workloads=(raytrace quicksort kv-open kv-drain)
selected=()
seed=1
seconds=25
trace=0
trace_dir=""
json=""
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || { echo "run.sh: missing value for $1" >&2; exit 2; }
  case "$1" in
    --workload) selected+=("$2") ;;
    --seed) seed="$2" ;;
    --seconds) seconds="$2" ;;
    --trace) trace="$2" ;;
    --trace-dir) trace_dir="$2" ;;
    --json) json="$2" ;;
    *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
  esac
  shift 2
done
[ ${#selected[@]} -gt 0 ] || selected=("${workloads[@]}")
[ -n "$trace_dir" ] || trace_dir="$build/traces"

jobs="$(nproc 2>/dev/null || echo 2)"
if [ ! -f "$build/Makefile" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target manti_bench -j "$jobs" >&2

# Never walk above the checkout looking for a repository.
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
  git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
[ "$trace" = 0 ] || mkdir -p "$trace_dir"

status=0
results=()
host=""
for w in "${selected[@]}"; do
  out="$build/last-$w.out"
  rc=0
  "$build/manti_bench" --workload "$w" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --trace-dir "$trace_dir" --commit "$commit" \
    >"$out" || rc=$?
  cat "$out"
  [ "$rc" = 0 ] || status=1
  last="$(tail -n 1 "$out")"
  case "$last" in "{"*) ;; *) last="" status=1 ;; esac
  results+=("$last")
  host="$(sed -n 's/^# host //p' "$out")"
  if [ "$trace" = 1 ] && [ "$rc" = 0 ] && command -v python3 >/dev/null; then
    # The trace must load as trace-event JSON.
    python3 - "$trace_dir/$w.trace.json" <<'EOF' >&2 || status=1
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
assert events, "no events"
for e in events:
    assert e["ph"] in ("X", "C", "M"), e
    assert e["ph"] == "M" or isinstance(e["ts"], (int, float)), e
print("trace ok: %s (%d events)" % (sys.argv[1], len(events)))
EOF
  fi
done

if [ ${#selected[@]} -gt 1 ]; then
  correct=true attempted=0 failed=0 metrics=""
  for i in "${!selected[@]}"; do
    r="${results[$i]}"
    [ -n "$r" ] || { correct=false; continue; }
    case "$r" in *'"correct": true'*) ;; *) correct=false ;; esac
    attempted=$((attempted + $(sed 's/.*"attempted": \([0-9]*\).*/\1/' <<<"$r")))
    failed=$((failed + $(sed 's/.*"failed": \([0-9]*\).*/\1/' <<<"$r")))
    m="$(sed 's/.*"metrics": {\(.*\)}}$/\1/' <<<"$r" |
      sed 's/"\([^"]*\)": {"value"/"'"${selected[$i]}"'.\1": {"value"/g')"
    [ -z "$m" ] || metrics="${metrics:+$metrics, }$m"
  done
  echo "{\"correct\": $correct, \"attempted\": $attempted, \"failed\": $failed, \"metrics\": {$metrics}}"
fi

if [ -n "$json" ]; then
  {
    echo "{\"host\": ${host:-null}, \"seed\": $seed, \"trace\": $trace, \"workloads\": {"
    for i in "${!selected[@]}"; do
      [ "$i" = 0 ] || echo ","
      printf '  "%s": %s' "${selected[$i]}" "${results[$i]:-null}"
    done
    echo
    echo "}}"
  } >"$json"
fi
exit "$status"
