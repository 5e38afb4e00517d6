#!/usr/bin/env bash
# Production size of the workspace: the two numbers every change reports.
#
# Lines: non-blank, non-comment Rust lines of `src/` and `crates/*/src`,
# each file read up to its first `#[cfg(test)]` at column 0 (the unit-test
# module; an indented one gates a single item and does not end the count).
# A line whose first non-blank characters are `//` is a comment, so `///`
# and `//!` docs do not count and deleting comments alone moves nothing.
# Items: the entries of results/PUBLIC_API.txt (see tools/public_api.sh).
#
# Usage:
#   tools/loc.sh    # per-crate lines, the total, and the public item count
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { live = 1 }
    /^#\[cfg\(test\)\]/ { live = 0 }
    live && !/^[[:space:]]*(\/\/|$)/ { n++ }
    END { print n + 0 }'
}

total=0
for dir in src crates/*/src; do
  name=$(basename "$(dirname "$dir")")
  [ "$dir" = src ] && name="(facade)"
  lines=$(count "$dir")
  total=$((total + lines))
  printf '%-16s %6d\n' "$name" "$lines"
done
printf '%-16s %6d\n' "total" "$total"
printf '%-16s %6d\n' "public items" "$(wc -l <results/PUBLIC_API.txt)"
