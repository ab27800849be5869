#!/usr/bin/env bash
# Non-test line count of the workspace, per crate and in total: for every
# `.rs` file under `crates/*/src`, the lines before its first
# `#[cfg(test)]` attribute line (the whole file when it has none; a doc
# comment quoting the attribute does not stop the count). This is the
# count ROADMAP.md's "Net shape" cites.
#
# Usage: bash scripts/nontest_lines.sh [ROOT]   (ROOT defaults to the
# repository this script sits in)
set -euo pipefail

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
total=0
for src in "$root"/crates/*/src; do
    crate="$(basename "$(dirname "$src")")"
    lines=$(find "$src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk '
            FNR == 1 { counting = 1 }
            /^[ \t]*#\[cfg\(test\)\]/ { counting = 0 }
            counting { n++ }
            END { print n + 0 }
        ' | awk '{ s += $1 } END { print s + 0 }')
    printf '%-12s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
