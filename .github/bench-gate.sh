#!/usr/bin/env bash
# Blocking end-to-end benchmark gate. Runs every BENCHMARK.json workload
# on BASE_REV and on the checked-out tree, then fails when
#
#   - bench/run.sh --compare exits non-zero (3: a metric regressed),
#   - a metric is "unresolved" (the parent's runs spread past the bound),
#     its median is worse than the bound, and the head's q1..q3 range lies
#     wholly on the worse side of the base's,
#   - a head run reports "correct": false, or
#   - results_digest differs on any seed-matched pair, unless the lines
#     this change adds to CHANGES.md contain the marker "results change:".
#
# Usage, from the repository root:
#
#   bash .github/bench-gate.sh BASE_REV
#
# BASE_REV is checked out with git worktree under .bench_gate/base, and the
# head's bench/ and BENCHMARK.json are copied over it, so both sides build
# the same benchmark code. Each workload runs for BENCHMARK.json's
# run_seconds with seeds 1 to $seeds; which side runs first alternates per
# seed. Records, logs and the compare table stay under .bench_gate/.
# A change to bench/ or BENCHMARK.json redefines the benchmark, so the
# gate skips it.
set -euo pipefail

base_rev=${1:?usage: bash .github/bench-gate.sh BASE_REV}
# Seven seeds. In no-change comparisons on a 2-vCPU VM, the worst median
# on a metric that could regress was 19 % worse against a 25 % bound at
# five seeds (three runs) and 16 % worse at seven (two runs).
seeds=7
marker='results change:'

root=$(pwd)
out="$root/.bench_gate"
base="$out/base"
rec="$out/records"

if ! git diff --quiet "$base_rev" -- bench BENCHMARK.json; then
  echo "::notice::bench/ or BENCHMARK.json differs from $base_rev: the change redefines the benchmark, so the gate is skipped"
  exit 0
fi

git worktree remove --force "$base" 2>/dev/null || true
rm -rf "$out"
git worktree prune
mkdir -p "$rec/base" "$rec/head"
git worktree add --detach "$base" "$base_rev" >/dev/null
trap 'git worktree remove --force "$base" 2>/dev/null || true' EXIT
rm -rf "$base/bench"
cp -R bench "$base/bench"
cp BENCHMARK.json "$base/BENCHMARK.json"

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

# run SIDE WORKLOAD SEED runs one workload in SIDE's tree.
run() {
  local side=$1 w=$2 s=$3 dir=$root
  [ "$side" = base ] && dir=$base
  echo "$(date -u +%H:%M:%S) $side $w seed $s"
  if ! (cd "$dir" && bash bench/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 \
    --out "$rec/$side/$w-$s.json") >"$rec/$side/$w-$s.log" 2>&1; then
    tail -n 20 "$rec/$side/$w-$s.log" >&2
    echo "::error::bench run failed: $side $w seed $s" >&2
    exit 1
  fi
}

for s in $(seq 1 "$seeds"); do
  for w in $workloads; do
    if ((s % 2)); then
      run base "$w" "$s"
      run head "$w" "$s"
    else
      run head "$w" "$s"
      run base "$w" "$s"
    fi
  done
done

fail=0
status=0
bash bench/run.sh --compare "$rec/base" "$rec/head" | tee "$out/compare.txt" || status=$?
if [ "$status" -ne 0 ]; then
  echo "::error::bench/run.sh --compare exited $status (3 means a metric regressed)"
  fail=1
fi
# compare.go calls a metric unresolved before it checks the bound, so a
# regression behind a noisy parent would pass; catch the ones whose
# quartile ranges do not even overlap. Columns: workload metric base_p50
# base_q1..q3 head_p50 head_q1..q3 worse% bound% verdict. A table this
# cannot parse fails the gate too.
if ! python3 - "$out/compare.txt" <<'PY'
import json, sys
better = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
hidden = []
for line in open(sys.argv[1]):
    f = line.split()
    if len(f) != 9 or f[8] != "unresolved":
        continue
    bq1, bq3 = map(float, f[3].split(".."))
    hq1, hq3 = map(float, f[5].split(".."))
    worse, bound = float(f[6].rstrip("%")), float(f[7].rstrip("%"))
    apart = hq1 > bq3 if better[f[1]] == "lower" else hq3 < bq1
    if worse > bound and apart:
        hidden.append(line.rstrip())
if hidden:
    print("::error::unresolved metrics worse than their bound, the head's quartiles wholly on the worse side:")
    print("\n".join(hidden))
sys.exit(1 if hidden else 0)
PY
then
  fail=1
fi
if incorrect=$(grep -lE '"correct": *false' "$rec"/head/*.json); then
  echo "::error::head runs failed verification: $incorrect"
  fail=1
fi
if mismatch=$(awk '$2 == "results_digest" && $5 != $7' "$out/compare.txt") && [ -n "$mismatch" ]; then
  if git diff "$base_rev" -- CHANGES.md | grep '^+' | grep -qF "$marker"; then
    echo "::notice::results_digest differs, and CHANGES.md declares it ('$marker'):"
    echo "$mismatch"
  else
    echo "::error::results_digest differs, and no line added to CHANGES.md contains '$marker':"
    echo "$mismatch"
    fail=1
  fi
fi
exit "$fail"
