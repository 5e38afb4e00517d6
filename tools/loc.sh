#!/usr/bin/env bash
# Production size of the workspace: the two numbers every change reports.
#
# Lines: non-blank, non-comment Rust lines of `src/` and `crates/*/src`,
# less every item gated by `#[cfg(test)]`, wherever it sits: a unit-test
# module, or a test-only method inside an `impl`. A gated item ends at the
# `;` that closes it or where its braces balance again; single-line raw
# strings (`r"…"`, `r#"…"#`, whose `\` is no escape), then char and plain
# string literals, then trailing comments are stripped before braces are
# counted. A line whose first non-blank characters are `//` is a comment, so
# `///` and `//!` docs do not count and deleting comments alone moves nothing.
# Items: the entries of results/PUBLIC_API.txt (see tools/public_api.sh).
#
# Every run first counts tools/loc_fixture.rs, whose first line states what
# the rule must read there, and exits 1 if it reads anything else.
#
# Usage:
#   tools/loc.sh    # per-crate lines, the total, and the public item count
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { gated = 0 }
    !gated && /^[[:space:]]*#\[cfg\(test\)\]/ {
      gated = 1; depth = 0; opened = 0
      sub(/^[[:space:]]*#\[cfg\(test\)\]/, "")
    }
    gated {
      # A raw string starts at an `r` that no identifier character or quote
      # precedes, so the `r"` that ends a plain "bar" starts none.
      t = " " $0
      while (match(t, /[^[:alnum:]_"]r(#"([^"]|"+[^"#])*"+#|"[^"]*")/))
        t = substr(t, 1, RSTART) substr(t, RSTART + RLENGTH)
      gsub(/\047([^\047\\]|\\.)\047/, "", t)
      gsub(/"([^"\\]|\\.)*"/, "", t)
      sub(/\/\/.*/, "", t)
      opens = gsub(/[{]/, "", t)
      depth += opens - gsub(/[}]/, "", t)
      if (opens) opened = 1
      if (opened ? depth <= 0 : t ~ /;[[:space:]]*$/) gated = 0
      next
    }
    !/^[[:space:]]*(\/\/|$)/ { n++ }
    END { print n + 0 }'
}

fixture=tools/loc_fixture.rs
want=$(sed -n '1s|^// loc.sh reads \([0-9]*\) .*|\1|p' "$fixture")
got=$(count "$fixture")
if [ "$got" != "$want" ]; then
  echo "loc.sh: the rule reads $got production lines in $fixture, not $want" >&2
  exit 1
fi

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
