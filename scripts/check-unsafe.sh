#!/usr/bin/env bash
# Package unsafe has one user outside tests: codec.Alias, the helper behind the
# receive path's frame-aliasing strings and the state tables' key chunks. This
# fails when any other non-test Go file (bench/ included) imports it.
#   bash scripts/check-unsafe.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
allowed=./internal/codec/alias.go
found=$(grep -rlE '^(import[[:space:]]+)?[[:space:]]*([A-Za-z_.]+[[:space:]]+)?"unsafe"' \
  --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build . | grep -vxF "$allowed" || true)
if [ -n "$found" ]; then
  echo "package unsafe imported outside $allowed:"
  echo "$found"
  exit 1
fi
grep -q '"unsafe"' "$allowed" || { echo "$allowed no longer imports unsafe: update this check"; exit 1; }
echo "unsafe: only $allowed"
