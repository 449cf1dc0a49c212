#!/usr/bin/env bash
# Print non-test source lines per workspace crate.
#
# Each `crates/*/src/**/*.rs` file is counted up to (not including) its
# first `#[cfg(test)]` line, so in-file unit-test modules are excluded
# while everything above them — code, docs and blank lines — counts.
#
# Usage: scripts/nontest-lines.sh [REPO_ROOT]   (default: the current dir)
set -euo pipefail

root="${1:-.}"
total=0
for crate in "$root"/crates/*/; do
    name="$(basename "$crate")"
    [ -d "$crate/src" ] || continue
    lines=$(find "$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 -r awk '
            FNR == 1 { counting = 1 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
            counting { n++ }
            END { print n + 0 }')
    printf '%-10s %6d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' "total" "$total"
