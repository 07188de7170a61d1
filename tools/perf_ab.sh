#!/usr/bin/env bash
# Interleaved A/B of the repository benchmark (perfbench/) between two
# revisions.
#
#   tools/perf_ab.sh REV_A REV_B WORKLOAD [ROUNDS]
#
# Each revision is checked out once into its own detached git worktree
# under build-ab/<commit> (reused by later calls), and perfbench/run.py
# builds it there. After one untimed warm-up run per side, ROUNDS rounds
# (default 10) run `python3 perfbench/run.py --workload WORKLOAD` once per
# side at run.py's own run length, alternating which side goes first so
# slow drift of the host hits both equally. The summary prints each side's
# median and quartiles of list_t1_ms over the rounds, the B/A ratio, how
# many rounds B beat A, whether the gain rule holds (B faster in at least
# 9 of every 10 rounds, and the gap between the medians larger than A's
# interquartile range), the exact sim_rounds / sim_messages (which must
# not differ between runs of one side; a perf-only change must not move
# them between sides either) and the medians of the remaining end-to-end
# metrics.
#
# Environment: AB_SEED, when set, is passed as --seed (default: the
# workload's own).
# Remove stale worktrees with `git worktree remove build-ab/<commit>`.
set -euo pipefail

usage() {
  echo "usage: $0 REV_A REV_B WORKLOAD [ROUNDS]" >&2
  exit 2
}
[[ $# -ge 3 && $# -le 4 ]] || usage
REV_A="$1"
REV_B="$2"
WORKLOAD="$3"
ROUNDS="${4:-10}"
[[ "${ROUNDS}" =~ ^[1-9][0-9]*$ ]] || usage
SEED_ARGS=()
if [[ -n "${AB_SEED:-}" ]]; then SEED_ARGS=(--seed "${AB_SEED}"); fi

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
AB_DIR="${REPO_ROOT}/build-ab"
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "${OUT_DIR}"' EXIT

checkout() {
  local sha
  sha="$(git -C "${REPO_ROOT}" rev-parse --verify "$1^{commit}")"
  local dir="${AB_DIR}/${sha}"
  if [[ ! -d "${dir}" ]]; then
    mkdir -p "${AB_DIR}"
    git -C "${REPO_ROOT}" worktree add --detach "${dir}" "${sha}" >&2
  fi
  echo "${dir}"
}

run_side() {  # run_side DIR LABEL: one benchmark run, JSON line appended
  local out
  out="$(cd "$1" && python3 perfbench/run.py --workload "${WORKLOAD}" \
           "${SEED_ARGS[@]}" 2>/dev/null)"
  tail -n 1 <<<"${out}" >>"${OUT_DIR}/$2.jsonl"
}

DIR_A="$(checkout "${REV_A}")"
DIR_B="$(checkout "${REV_B}")"
echo "A = ${REV_A} (${DIR_A})" >&2
echo "B = ${REV_B} (${DIR_B})" >&2

# Warm-up: builds each side and faults in the binaries; not recorded.
for dir in "${DIR_A}" "${DIR_B}"; do
  (cd "${dir}" && python3 perfbench/run.py --workload "${WORKLOAD}" \
     --seconds 1 >/dev/null)
done

for ((round = 1; round <= ROUNDS; ++round)); do
  if ((round % 2 == 1)); then
    run_side "${DIR_A}" a
    run_side "${DIR_B}" b
  else
    run_side "${DIR_B}" b
    run_side "${DIR_A}" a
  fi
  echo "round ${round}/${ROUNDS} done" >&2
done

python3 - "${OUT_DIR}" "${WORKLOAD}" <<'EOF'
import json
import statistics
import sys

out_dir, workload = sys.argv[1], sys.argv[2]
runs = {}
for side in ("a", "b"):
    with open(f"{out_dir}/{side}.jsonl") as f:
        runs[side] = [json.loads(line) for line in f if line.strip()]

def values(side, name):
    return [r["metrics"][name]["value"] for r in runs[side]]

def quartiles(xs):
    # statistics.quantiles needs two points; one run is its own quartiles.
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3

print(f"{workload}: {len(runs['a'])} interleaved rounds")
medians = {}
iqr = {}
for side in ("a", "b"):
    t1 = values(side, "list_t1_ms")
    medians[side] = statistics.median(t1)
    q1, q3 = quartiles(t1)
    iqr[side] = q3 - q1
    rounds = sorted(set(values(side, "sim_rounds")))
    messages = sorted(set(values(side, "sim_messages")))
    print(f"  {side.upper()}: list_t1_ms median {medians[side]:.3f} "
          f"[Q1 {q1:.3f}, Q3 {q3:.3f}] "
          f"(runs {', '.join(f'{x:.2f}' for x in t1)})")
    print(f"     sim_rounds {', '.join(repr(x) for x in rounds)}; "
          f"sim_messages {', '.join(repr(x) for x in messages)}"
          + ("  [VARIES BETWEEN RUNS]" if len(rounds) + len(messages) > 2
             else ""))
    others = [name for name in runs[side][0]["metrics"]
              if name not in ("list_t1_ms", "sim_rounds", "sim_messages")]
    print("     medians: " + "; ".join(
        f"{name} {statistics.median(values(side, name)):.4g}"
        for name in others))
wins = sum(b < a for a, b in zip(values("a", "list_t1_ms"),
                                 values("b", "list_t1_ms")))
total = len(runs['a'])
gap = medians['a'] - medians['b']
print(f"  B/A median list_t1_ms: {medians['b'] / medians['a']:.3f} "
      f"(B faster in {wins}/{total} rounds)")
holds = 10 * wins >= 9 * total and gap > iqr['a']
print(f"  gain rule (B faster in >= 9/10 of rounds, median gap {gap:.3f} > "
      f"A IQR {iqr['a']:.3f}): " + ("HOLDS" if holds else "does not hold"))
same = (values("a", "sim_rounds")[:1] == values("b", "sim_rounds")[:1] and
        values("a", "sim_messages")[:1] == values("b", "sim_messages")[:1])
print("  simulated cost: " + ("identical" if same else "DIFFERS between A and B"))
failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
if any(failed.values()):
    print(f"  FAILED calls: A {failed['a']}, B {failed['b']}")
EOF
