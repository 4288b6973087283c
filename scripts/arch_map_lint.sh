#!/usr/bin/env bash
# Fail if README's architecture map and the tree disagree:
#
#   scripts/arch_map_lint.sh
#
# The map is the first code block under "## Architecture map" in README.md.
# It has one row per directory under src/, plus bench/, examples/ and
# tests/. A row starts in column 0 with the directory name and a slash;
# its continuation lines are indented. A directory added or removed
# without its row fails here, and the message names it.
set -euo pipefail

cd "$(dirname "$0")/.."
export LC_ALL=C
map=$(awk '
  /^## Architecture map/ { in_section = 1; next }
  in_section && /^```/ { if (in_block) exit; in_block = 1; next }
  in_block && match($0, /^[a-z_]+\//) { print substr($0, 1, RLENGTH - 1) }
' README.md | sort -u)
tree=$({
  for dir in src/*/; do basename "$dir"; done
  printf '%s\n' bench examples tests
} | sort -u)

missing=$(comm -13 <(printf '%s\n' "$map") <(printf '%s\n' "$tree") | xargs)
stale=$(comm -23 <(printf '%s\n' "$map") <(printf '%s\n' "$tree") | xargs)
if [ -n "$missing" ]; then
  echo "arch_map_lint: in the tree but not in README's architecture map:" \
    "$missing" >&2
fi
if [ -n "$stale" ]; then
  echo "arch_map_lint: in README's architecture map but not in the tree:" \
    "$stale" >&2
fi
if [ -n "$missing$stale" ]; then
  exit 1
fi
echo "arch_map_lint: OK"
