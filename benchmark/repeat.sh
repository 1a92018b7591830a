#!/usr/bin/env bash
# Repeatability check: runs N full benchmark sets, seeds 1..N, and prints
# for every metric its median, quartiles, relative IQR (quartile distance
# over the median), the largest relative deviation from the median, and
# the regression bound that spread supports: max(3 x relative IQR, 3%),
# so the run-to-run spread stays under a third of the bound.
#
#   bash benchmark/repeat.sh N [run.sh options, e.g. --workload kv-open]
#
# Needs python3 for the statistics.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac

n="${1:?usage: repeat.sh N [run.sh options]}"
shift
out="$build/repeat"
mkdir -p "$out"
: >"$out/results.jsonl"
for i in $(seq 1 "$n"); do
  if ! bash "$here/run.sh" --seed "$i" "$@" >"$out/run-$i.out"; then
    echo "repeat.sh: run $i (seed $i) failed; see $out/run-$i.out" >&2
    exit 1
  fi
  tail -n 1 "$out/run-$i.out" >>"$out/results.jsonl"
  echo "run $i/$n done" >&2
done

python3 - "$out/results.jsonl" <<'EOF'
import json, statistics, sys

runs = [json.loads(line) for line in open(sys.argv[1])]
print("%-34s %14s %14s %14s %8s %8s %7s" %
      ("metric", "median", "q1", "q3", "iqr%", "maxdev%", "bound"))
for name, first in runs[0]["metrics"].items():
    v = [r["metrics"][name]["value"] for r in runs]
    med = statistics.median(v)
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
    iqr = (q3 - q1) / abs(med) if med else float("nan")
    dev = max(abs(x - med) for x in v) / abs(med) if med else float("nan")
    bound = max(3 * iqr, 0.03)
    print("%-34s %14.6g %14.6g %14.6g %8.2f %8.2f %7.3f %s" %
          (name, med, q1, q3, 100 * iqr, 100 * dev, bound, first["unit"]))
EOF
