#!/usr/bin/env bash
# Compares the figure CSVs that two runs of the smoke benches wrote: two
# builds of one tree (the SIMD and the SWAR probe backend), or a change and
# its parent commit.
#
#   (cd A && figS_shuffle --smoke && fig12_latency_breakdown --smoke \
#         && figR_recovery --smoke)          # likewise in B
#   scripts/cmp_figures.sh A/results B/results
#
# fig12_*.csv and figR_*.csv must match byte for byte. figS_shuffle.csv must
# match with its wall_s column cut: that column is host wall-clock time and
# differs even between two runs of one binary, while every simulated column
# is compared verbatim. Both directories must hold the same set of these
# files, including at least one fig12_*.csv, one figR_*.csv and
# figS_shuffle.csv. Every differing file is listed; the exit status is 1 if
# there is one, 2 on a usage error or a missing file.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 DIR_A DIR_B" >&2
  exit 2
fi
dir_a=$1
dir_b=$2

# Names of the compared CSVs in $1, one per line, sorted.
figure_names() {
  local f
  shopt -s nullglob
  for f in "$1"/fig12_*.csv "$1"/figR_*.csv "$1"/figS_shuffle.csv; do
    if [[ -e "$f" ]]; then basename "$f"; fi
  done | sort
}

# Prints CSV $1 without its wall_s column (found by header name).
without_wall_s() {
  awk -F, 'NR == 1 { for (i = 1; i <= NF; i++) if ($i == "wall_s") w = i }
           { line = ""; sep = ""
             for (i = 1; i <= NF; i++) if (i != w) { line = line sep $i; sep = "," }
             print line }' "$1"
}

names_a=$(figure_names "$dir_a")
names_b=$(figure_names "$dir_b")
for pattern in '^fig12_' '^figR_' '^figS_shuffle\.csv$'; do
  if ! grep -q "$pattern" <<<"$names_a"; then
    echo "missing: no file matching $pattern in $dir_a" >&2
    exit 2
  fi
done
if [[ "$names_a" != "$names_b" ]]; then
  echo "the two directories hold different figure files:" >&2
  diff <(echo "$names_a") <(echo "$names_b") >&2 || true
  exit 2
fi

differ=0
while read -r name; do
  if [[ "$name" == figS_shuffle.csv ]]; then
    same=$(cmp -s <(without_wall_s "$dir_a/$name") <(without_wall_s "$dir_b/$name") \
           && echo yes || echo no)
  else
    same=$(cmp -s "$dir_a/$name" "$dir_b/$name" && echo yes || echo no)
  fi
  if [[ $same == no ]]; then
    echo "DIFFERS: $name"
    differ=1
  fi
done <<<"$names_a"

if [[ $differ -ne 0 ]]; then
  exit 1
fi
echo "$(wc -l <<<"$names_a") figure CSVs identical (figS_shuffle.csv without wall_s)"
