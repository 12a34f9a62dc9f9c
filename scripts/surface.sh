#!/usr/bin/env bash
# surface.sh — the numbers the ROADMAP's design north star says must go
# down: per package outside benchmark/, the non-test Go lines, the
# exported identifiers (`go doc -short`: one line per exported const,
# var, func and type; methods are not counted) and the unreached funcs —
# non-test funcs and methods that no binary links. A report, not a
# gate — simplicity PRs quote it before and after instead of ad-hoc wc.
#
# unreached: every main package of the module and of benchmark/ is
# built without inlining (-gcflags=all=-l), so each function a binary
# calls keeps its own symbol, and `go tool nm` lists what the linker
# kept. Generic shapes (`F[go.shape.int]`) and closures (`F.func1`,
# `F-fm`, `init.0`) fold into the declaration they come from. A main
# package's own funcs are looked up in its own binary.
#
# Usage: scripts/surface.sh
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# symbols BINARY: the folded names of the functions BINARY links.
symbols() {
  go tool nm "$1" | sed -nE 's/^ *[0-9a-f]+ [Tt] //p' \
    | sed -E ':a; s/\[[^][]*\]//g; ta' \
    | sed -E 's/-fm$//; s/(\.(func|gowrap|deferwrap)[0-9]+|-range[0-9]+|\.[0-9]+)+$//' \
    | sort -u
}

# decls FILE...: the funcs and methods declared in the files, as nm
# spells them after folding: F, T.M or (*T).M.
decls() {
  sed -nE \
    -e 's/^func \(([A-Za-z_0-9]+ +)?\*([A-Za-z_0-9]+)(\[[^]]*\])?\) *([A-Za-z_0-9]+).*/(*\2).\4/p' \
    -e 's/^func \(([A-Za-z_0-9]+ +)?([A-Za-z_0-9]+)(\[[^]]*\])?\) *([A-Za-z_0-9]+).*/\2.\4/p' \
    -e 's/^func ([A-Za-z_0-9]+).*/\1/p' "$@" | grep -v -e '^_$' -e '\._$' || true
}

: > "$work/linked"
while read -r path; do
  go build -gcflags=all=-l -o "$work/bin" "$path"
  symbols "$work/bin" > "$work/${path//\//_}.syms"
  cat "$work/${path//\//_}.syms" >> "$work/linked"
done < <(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)
(cd benchmark && go build -gcflags=all=-l -o "$work/bin" .)
symbols "$work/bin" >> "$work/linked"
sort -u -o "$work/linked" "$work/linked"

printf '%-44s %8s %9s %9s\n' package lines exported unreached
total_lines=0
total_exported=0
total_unreached=0
while read -r dir name path files; do
  lines=0
  exported=0
  unreached=0
  if [ -n "$files" ]; then
    # shellcheck disable=SC2086 # files is a space-separated list
    lines=$(cd "$dir" && cat $files | wc -l)
    if [ "$name" = main ]; then
      prefix=main
      linked="$work/${path//\//_}.syms"
    else
      prefix=$path
      linked="$work/linked"
      exported=$(go doc -short "$dir" 2>/dev/null | wc -l)
    fi
    # shellcheck disable=SC2086
    unreached=$( (cd "$dir" && decls $files) | sed "s|^|$prefix.|" | sort -u \
      | comm -23 - "$linked" | wc -l)
  fi
  rel=${dir#"$PWD"}
  printf '%-44s %8d %9d %9d\n' ".${rel}" "$lines" "$exported" "$unreached"
  total_lines=$((total_lines + lines))
  total_exported=$((total_exported + exported))
  total_unreached=$((total_unreached + unreached))
done < <(go list -f '{{.Dir}} {{.Name}} {{.ImportPath}} {{join .GoFiles " "}}' ./...)
printf '%-44s %8d %9d %9d\n' total "$total_lines" "$total_exported" "$total_unreached"
