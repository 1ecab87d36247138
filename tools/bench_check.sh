#!/usr/bin/env bash
# Perf regression gates: rebuilds bench/micro_kernels and kylix_cli in
# Release and runs three gates.
#
# 1. Kernel rows: re-measures every micro_kernels row and compares
#    kernel_eps against the committed BENCH_kernels.json. A row regressing
#    by more than the tolerance fails the gate and the table marks it
#    REGRESS. Wall-clock microbenches are noisy across hosts, so the
#    committed artifact is a same-machine baseline: refresh it (run
#    micro_kernels, commit the JSON) whenever the kernels or the hardware
#    change intentionally. The default 25% tolerance absorbs scheduler
#    jitter on shared runners while still catching algorithmic regressions
#    (the kernels win by 2-4x, not percents).
# 2. Healing loop: `kylix_cli heal` exits nonzero unless every healed
#    reduce is bit-identical to a fresh survivor configure and every
#    rejoin restores the cached epoch-0 plan.
# 3. Healing cost: the same run's re-plan may cost at most 1.5x a cold
#    configure on the survivor set.
#
# Every gate runs and prints its table whatever the earlier gates said, so
# one flaky row cannot hide the rest; the script ends with one line per
# gate and exits 1 if any gate failed (2 if the baseline is missing; a
# build or measurement error still stops it at once).
#
# Usage: tools/bench_check.sh [build-dir] [tolerance]
#   build-dir defaults to build-bench (separate tree pinned to Release so a
#   Debug working tree never produces bogus regressions).
#   tolerance defaults to 0.25 (new_eps >= (1 - tol) * old_eps).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-"${repo_root}/build-bench"}"
tolerance="${2:-0.25}"
baseline="${repo_root}/BENCH_kernels.json"

if [[ ! -f "${baseline}" ]]; then
  echo "error: no committed baseline at ${baseline}" >&2
  echo "       run bench/micro_kernels once and commit its output" >&2
  exit 2
fi

# run_gate NAME CMD...: run one gate (its heredoc is CMD's stdin), keep
# going whatever it returns, and remember the verdict for the summary.
gate_results=()
failed_gates=0
run_gate() {
  local name="$1"
  shift
  if "$@"; then
    gate_results+=("pass  ${name}")
  else
    gate_results+=("FAIL  ${name}")
    failed_gates=$((failed_gates + 1))
  fi
}

cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j "$(nproc)" --target micro_kernels

fresh="${build_dir}/BENCH_kernels_fresh.json"
"${build_dir}/bench/micro_kernels" "${fresh}" > /dev/null

run_gate "kernel rows" \
  python3 - "${baseline}" "${fresh}" "${tolerance}" <<'EOF'
import json
import sys

baseline_path, fresh_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
baseline = json.load(open(baseline_path))
fresh = json.load(open(fresh_path))

def rows(doc):
    return {(r["kernel"], r["size"], r["skew"]): r for r in doc["kernels"]}

old, new = rows(baseline), rows(fresh)
missing = sorted(set(old) - set(new))
if missing:
    print(f"error: fresh run lacks {len(missing)} baseline rows: {missing}")
    sys.exit(1)

print(f"{'kernel':<16}{'size':>9} {'skew':<15}{'old el/s':>11}"
      f"{'new el/s':>11}{'ratio':>7}  status")
failed = 0
for key in sorted(old):
    o, n = old[key]["kernel_eps"], new[key]["kernel_eps"]
    ratio = n / o if o else float("inf")
    ok = n >= (1.0 - tol) * o
    failed += not ok
    print(f"{key[0]:<16}{key[1]:>9} {key[2]:<15}{o:>11.3g}{n:>11.3g}"
          f"{ratio:>7.2f}  {'ok' if ok else 'REGRESS'}")

if failed:
    print(f"\n{failed} kernel row(s) regressed beyond "
          f"{tol:.0%} tolerance vs {baseline_path}")
    sys.exit(1)
print(f"\nall {len(old)} kernel rows within {tol:.0%} of the baseline")
EOF

# ---- Healing gate ----------------------------------------------------------
# Elastic membership (DESIGN §12) must keep re-planning cheap: after a
# kill-group is confirmed dead, the EpochedPlanManager's re-plan on the
# survivor set may cost at most 1.5x a cold configure on that same survivor
# set (it runs the same config rounds plus the epoch bookkeeping — salted
# fingerprints, cache insert). The loop itself is the correctness gate:
# `kylix_cli heal` exits nonzero unless every healed reduce is
# bit-identical to a fresh survivor configure and every rejoin restores
# the cached epoch-0 plan.
cmake --build "${build_dir}" -j "$(nproc)" --target kylix_cli
heal_json="${build_dir}/BENCH_heal_fresh.json"
rm -f "${heal_json}"
run_gate "healing loop (kylix_cli heal exit status)" \
  "${build_dir}/tools/kylix_cli" heal --machines 32 --features 65536 \
  --density 0.15 --replication 2 --cycles 3 --group-size 2 \
  --heal-out "${heal_json}" > /dev/null

run_gate "healing cost" python3 - "${heal_json}" <<'PYHEAL'
import json
import sys

doc = json.load(open(sys.argv[1]))
max_ratio = 1.5

ratio = doc["replan_over_cold_ratio"]
ok_ratio = 0 < ratio <= max_ratio
ok_sound = doc["all_sound"]
ok_degraded = doc["mean_degraded_rounds"] > 0
ok_epochs = doc["epochs"] == 2 * doc["cycles"]  # one death + one rejoin each

print(f"\n{'machines':>9}{'repl':>6}{'group':>7}{'cycles':>8}"
      f"{'replan s':>10}{'cold s':>9}{'ratio':>7}{'degraded':>10}  status")
status = "ok"
if not ok_ratio:
    status = "REGRESS"
if not ok_sound:
    status += " UNSOUND"
if not ok_degraded:
    status += " NO-DEGRADED-ROUNDS"
if not ok_epochs:
    status += " EPOCH-MISCOUNT"
print(f"{doc['machines']:>9}{doc['replication']:>6}{doc['group_size']:>7}"
      f"{doc['cycles']:>8}{doc['mean_replan_s']:>10.4f}"
      f"{doc['mean_survivor_cold_s']:>9.4f}{ratio:>7.2f}"
      f"{doc['mean_degraded_rounds']:>10.1f}  {status}")

if not (ok_ratio and ok_sound and ok_degraded and ok_epochs):
    print(f"\nhealing gate FAILED: re-plan must cost <= {max_ratio}x a cold "
          f"survivor configure, with sound heals, degraded rounds observed, "
          f"and a death+rejoin epoch pair per cycle")
    sys.exit(1)
print(f"\nhealing gate passed: re-plan {ratio:.2f}x cold survivor configure "
      f"(<= {max_ratio}x), all heals and rejoins bit-identical")
PYHEAL

echo
echo "gate summary:"
for result in "${gate_results[@]}"; do
  echo "  ${result}"
done
if ((failed_gates > 0)); then
  echo "${failed_gates} of ${#gate_results[@]} gates failed"
  exit 1
fi
echo "all ${#gate_results[@]} gates passed"
