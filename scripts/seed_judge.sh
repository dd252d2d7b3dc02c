#!/usr/bin/env bash
# Seed-swept judge of a change that moves the bits on air.
#
#   scripts/seed_judge.sh <base-rev> [<change-rev>]      (change defaults to HEAD)
#
# At the FM cliff an ulp anywhere in the transmitted audio loses different
# bursts, so one seed of trip_fm cannot say whether a change is better or
# worse. This runs the first pass of trip_fm (`--workload trip_fm --seconds 0
# --trace 1 --full --seed s`) at seeds 1..10 on both revisions and prints,
# per seed, base -> change of
#
#   core.link_rx.{bursts, bursts_failed, frames_ok}   totals over the pass (per-unit value x run.units)
#   goodput_bps  pixel_loss_frac  psnr_db  sms_per_page  air_s_per_page
#
# then per column the paired difference (change - base) as mean +- standard
# error over the seeds. `bursts` and `frames_ok` count repair bursts too, so a
# change that needs fewer repairs lowers both: they are printed as context and
# left out of the verdict. Every other column is "no worse" when its mean
# difference is within 2 SE of zero or in the change's favour.
#
# Exit status: 0 when no judged column is worse; 1 when one is, or when a run
# exits non-zero or its result line is not `"correct": true, "failed": 0`
# (the seed, the side and the run's output and stderr files are named);
# 2 on a usage or build error.
#
# Each revision is exported with `git archive` into its own directory (the
# repository's working tree, index and worktree list are not touched) and its
# benchmark is built offline with its own CARGO_TARGET_DIR.
#
# Environment: JUDGE_DIR, the work directory (default a new `mktemp -d`;
# exports, builds and every run's output, stderr and result line stay there).
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  awk 'NR > 1 && /^#/ { sub(/^# ?/, ""); print; next } NR > 1 { exit }' "$0" >&2
  exit 2
fi
repo="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
base_rev="$(git -C "$repo" rev-parse --verify "$1^{commit}")" || exit 2
change_rev="$(git -C "$repo" rev-parse --verify "${2:-HEAD}^{commit}")" || exit 2
work="${JUDGE_DIR:-$(mktemp -d)}"
mkdir -p "$work"

# Exports and builds one revision; prints the benchmark binary's path.
build() {
  local side="$1" rev="$2"
  local src="$work/$side" target="$work/target-$side"
  rm -rf "$src"
  mkdir -p "$src"
  git -C "$repo" archive "$rev" | tar -x -C "$src"
  echo "building $side ($rev)" >&2
  CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$src/benchmark/Cargo.toml" >&2 || exit 2
  echo "$target/release/sonic-benchmark"
}

base_bin="$(build base "$base_rev")"
change_bin="$(build change "$change_rev")"

# One TSV line per run: side, seed, wall seconds, then the eight columns.
runs="$work/runs.tsv"
: > "$runs"
for seed in $(seq 1 10); do
  for side in base change; do
    bin="${side}_bin"
    out="$work/$side-$seed.out" err="$work/$side-$seed.err" json="$work/$side-$seed.json"
    start=$EPOCHREALTIME
    status=0
    (cd "$work/$side" && "${!bin}" --workload trip_fm --seconds 0 --trace 1 --full --seed "$seed") \
      > "$out" 2> "$err" || status=$?
    secs=$(awk -v a="$start" -v b="$EPOCHREALTIME" 'BEGIN { printf "%.1f", b - a }')
    tail -n 1 "$out" > "$json"
    if ((status != 0)) || ! jq -e '.correct == true and .failed == 0' "$json" > /dev/null 2>&1; then
      echo "seed $seed $side: the run failed (exit $status); output $out, stderr $err" >&2
      grep -F FAILED "$out" >&2 || true
      exit 1
    fi
    jq -r --arg side "$side" --arg seed "$seed" --arg secs "$secs" '
      .metrics as $m | ($m["run.units"].value) as $u
      | [$side, $seed, $secs,
         ($m["core.link_rx.bursts"].value * $u + 0.5 | floor),
         ($m["core.link_rx.bursts_failed"].value * $u + 0.5 | floor),
         ($m["core.link_rx.frames_ok"].value * $u + 0.5 | floor),
         $m.goodput_bps.value, $m.pixel_loss_frac.value, $m.psnr_db.value,
         $m.sms_per_page.value, $m.air_s_per_page.value]
      | @tsv' "$json" >> "$runs"
    echo "seed $seed $side: ${secs} s" >&2
  done
done

awk -F '\t' -v base="${base_rev:0:9}" -v change="${change_rev:0:9}" '
BEGIN {
  split("bursts bursts_failed frames_ok goodput_bps pixel_loss_frac psnr_db sms_per_page air_s_per_page", name, " ")
  # +1: higher is better; -1: lower is better; 0: context, not judged.
  split("0 -1 0 1 -1 1 -1 -1", better, " ")
  split("%d %d %d %.2f %.5f %.4f %.3f %.4f", fmt, " ")
  cols = 8
}
{
  side = $1; seed = $2 + 0; secs[side, seed] = $3
  for (c = 1; c <= cols; c++) v[side, seed, c] = $(c + 3)
  if (seed > n) n = seed
}
END {
  printf "trip_fm first pass, base %s -> change %s, seeds 1-%d\n\n", base, change, n
  printf "| seed |"
  for (c = 1; c <= cols; c++) printf " %s |", name[c]
  printf " s (base / change) |\n|---|"
  for (c = 1; c <= cols; c++) printf "---|"
  printf "---|\n"
  for (s = 1; s <= n; s++) {
    printf "| %d |", s
    for (c = 1; c <= cols; c++) {
      b = v["base", s, c]; x = v["change", s, c]
      if (b == x) printf " " fmt[c] " |", b
      else printf " " fmt[c] " -> " fmt[c] " |", b, x
    }
    printf " %s / %s |\n", secs["base", s], secs["change", s]
  }
  worse = 0
  printf "| diff |"
  for (c = 1; c <= cols; c++) {
    sum = 0; sq = 0
    for (s = 1; s <= n; s++) { d = v["change", s, c] - v["base", s, c]; sum += d; sq += d * d }
    mean = sum / n
    var = n > 1 ? (sq - n * mean * mean) / (n - 1) : 0
    se = sqrt(var > 0 ? var : 0) / sqrt(n)
    bad = -better[c] * mean > 2 * se
    if (bad) worse++
    printf " %+.4g +- %.4g%s |", mean, se, better[c] == 0 ? " (context)" : bad ? " WORSE" : ""
  }
  printf " |\n\npaired difference change - base: mean +- standard error over %d seeds;", n
  printf " bursts and frames_ok are context, not judged\n"
  if (worse) { printf "verdict: %d judged column(s) worse by more than 2 SE\n", worse; exit 1 }
  printf "verdict: no judged column worse by more than 2 SE\n"
}' "$runs"
