#!/usr/bin/env bash
# Fail if library code under src/ writes to stdout:
#
#   scripts/stdout_lint.sh
#
# Programs that link the library own their stdout. lamb_bench's last
# stdout line must be its result object, and the bench drivers print CSV
# and tables there, so a stray printf, puts, std::cout or use of stdout
# inside the library corrupts their output. Diagnostics go to stderr.
set -euo pipefail

cd "$(dirname "$0")/.."
pattern='(^|[^A-Za-z0-9_])(printf|puts|putchar|vprintf)[[:space:]]*\(|std::cout|(^|[^A-Za-z0-9_])stdout([^A-Za-z0-9_]|$)|STDOUT_FILENO'
if grep -rnE "$pattern" src; then
  echo "stdout_lint: the lines above write to stdout from src/" >&2
  exit 1
fi
echo "stdout_lint: OK"
