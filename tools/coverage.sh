#!/usr/bin/env bash
# Line coverage of src/**/*.cpp over the golden configurations.
#
#   tools/coverage.sh [BUILD_DIR]        (default: build-coverage)
#
# Configures an unoptimised build with --coverage in BUILD_DIR, builds it,
# runs every golden ctest (each fig/table bench configuration, the full
# fig11 sweep included, the raptor bench and four examples), then runs gcov
# over the src/ objects. It prints one row per source file, most unexecuted lines first:
# executable lines, unexecuted lines and the unexecuted line numbers, then
# the totals. It is a report, not a gate: it sets no threshold and fails
# only when the build or a golden fails.
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$repo/build-coverage}
jobs=$(nproc)

cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage >/dev/null
cmake --build "$build" -j "$jobs" >/dev/null
find "$build" -name '*.gcda' -delete
(cd "$build" && ctest -R '^golden\.' -j "$jobs" --output-on-failure >/dev/null)

# gcov reads each object's notes (.gcno) and counts (.gcda); an object that
# no golden ran has no counts, and gcov reports all its lines unexecuted.
cd "$build"
find src -name '*.gcno' | sort | while read -r notes; do
  gcov -t -o "$(dirname "$notes")" "$notes" 2>/dev/null
done | awk -v src="$repo/src/" '
  # gcov -t prints each line as "count:line:text". The count is "-" for a
  # line without code and "#####" or "=====" for one that never ran.
  # Template instances repeat a line below it; only its first count is kept.
  /^ *-: *0:Source:/ {
    file = substr($0, index($0, "Source:") + 7)
    keep = index(file, src) == 1 && file ~ /\.cpp$/
    file = substr(file, length(src) + 1)
    next
  }
  !keep { next }
  {
    split($0, field, ":")
    count = field[1]
    gsub(/ /, "", count)
    line = field[2] + 0
    if (count == "-" || line == 0 || seen[file, line]++) next
    lines[file]++
    if (count == "#####" || count == "=====") {
      unrun[file]++
      list[file] = list[file] " " line
    }
  }
  # " 3 4 5 9" -> "3-5,9"
  function ranges(text,    n, i, out, from) {
    n = split(text, at, " ")
    for (i = 1; i <= n; i++) {
      if (i == 1 || at[i] != at[i - 1] + 1) from = at[i]
      if (i == n || at[i + 1] != at[i] + 1) {
        out = out (out == "" ? "" : ",") (from == at[i] ? from : from "-" at[i])
      }
    }
    return out
  }
  END {
    for (f in lines) printf "%d\t%d\t%s\t%s\n", unrun[f], lines[f], f, ranges(list[f])
  }
' | sort -t$'\t' -k1,1nr -k3,3 | awk -F'\t' '
  BEGIN { printf "%-34s %6s %6s  %s\n", "file", "lines", "unrun", "unexecuted lines" }
  { printf "%-34s %6d %6d  %s\n", $3, $2, $1, $4; all += $2; none += $1 }
  END {
    printf "%-34s %6d %6d  (%.1f%% of lines ran)\n", "total", all, none,
           all ? 100 * (all - none) / all : 0
  }'
