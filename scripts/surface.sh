#!/usr/bin/env bash
# surface.sh — the two numbers the ROADMAP's design north star says
# must go down: per package outside benchmark/, the non-test Go lines
# and the exported identifiers (`go doc -short`: one line per exported
# const, var, func and type; methods are not counted). A report, not a
# gate — simplicity PRs quote it before and after instead of ad-hoc wc.
#
# Usage: scripts/surface.sh
set -euo pipefail
cd "$(dirname "$0")/.."

printf '%-44s %8s %9s\n' package lines exported
total_lines=0
total_exported=0
while read -r dir name; do
  lines=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
  exported=0
  if [ "$name" != main ]; then
    exported=$(go doc -short "$dir" 2>/dev/null | wc -l)
  fi
  rel=${dir#"$PWD"}
  printf '%-44s %8d %9d\n' ".${rel}" "$lines" "$exported"
  total_lines=$((total_lines + lines))
  total_exported=$((total_exported + exported))
done < <(go list -f '{{.Dir}} {{.Name}}' ./...)
printf '%-44s %8d %9d\n' total "$total_lines" "$total_exported"
