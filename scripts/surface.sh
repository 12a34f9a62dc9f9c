#!/usr/bin/env bash
# surface.sh — the numbers the ROADMAP's design north star says must go
# down: per package outside benchmark/, the non-test Go lines, the
# exported identifiers (`go doc -short`: one line per exported const,
# var, func and type; methods are not counted) and the unreached funcs —
# non-test funcs and methods that no binary links. Simplicity PRs quote
# it before and after instead of ad-hoc wc.
#
# It is also a gate. After the table it prints every unreached func, and
# each must have a line in scripts/unreached.allow: the name as printed
# here, then the reason it is kept. The script exits non-zero when an
# unreached func has no line there, when a line names a func that is now
# reached or no longer declared, or when a line gives no reason — so the
# count can only fall unless someone writes down why it rose.
# scripts/lint.sh runs it.
#
# unreached: every main package of the module and of benchmark/ is
# built without inlining (-gcflags=all=-l), so each function a binary
# calls keeps its own symbol, and `go tool nm` lists what the linker
# kept. Generic shapes (`F[go.shape.int]`) and closures (`F.func1`,
# `F-fm`, `init.0`) fold into the declaration they come from. A main
# package's own funcs are looked up in its own binary, and printed under
# its import path rather than nm's `main`.
#
# Usage: scripts/surface.sh
set -euo pipefail
cd "$(dirname "$0")/.."

allow=scripts/unreached.allow
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
: > "$work/unreached"
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
    (cd "$dir" && decls $files) | sed "s|^|$prefix.|" | sort -u \
      | comm -23 - "$linked" | sed "s|^$prefix\.|$path.|" > "$work/pkg"
    unreached=$(wc -l < "$work/pkg")
    cat "$work/pkg" >> "$work/unreached"
  fi
  rel=${dir#"$PWD"}
  printf '%-44s %8d %9d %9d\n' ".${rel}" "$lines" "$exported" "$unreached"
  total_lines=$((total_lines + lines))
  total_exported=$((total_exported + exported))
done < <(go list -f '{{.Dir}} {{.Name}} {{.ImportPath}} {{join .GoFiles " "}}' ./...)
sort -o "$work/unreached" "$work/unreached"
printf '%-44s %8d %9d %9d\n' total "$total_lines" "$total_exported" "$(wc -l < "$work/unreached")"

# The allowlist: a name, then its reason; blank lines and # comments
# are skipped.
grep -vE '^[[:space:]]*(#|$)' "$allow" > "$work/allow" || true
awk '{ print $1 }' "$work/allow" | sort > "$work/allowed"

echo
echo "unreached funcs (each kept for the reason in $allow):"
sed 's/^/  /' "$work/unreached"

fail=0
missing=$(comm -23 "$work/unreached" "$work/allowed")
if [ -n "$missing" ]; then
  echo "unreached, and not in $allow — delete each, move it into a test, or add a line saying why it stays:" >&2
  echo "$missing" | sed 's/^/  /' >&2
  fail=1
fi
stale=$(comm -13 "$work/unreached" "$work/allowed")
if [ -n "$stale" ]; then
  echo "$allow names funcs that a binary now links or that no longer exist — drop their lines:" >&2
  echo "$stale" | sed 's/^/  /' >&2
  fail=1
fi
dups=$(uniq -d "$work/allowed")
if [ -n "$dups" ]; then
  echo "$allow names a func twice:" >&2
  echo "$dups" | sed 's/^/  /' >&2
  fail=1
fi
bare=$(awk 'NF < 2 { print $1 }' "$work/allow")
if [ -n "$bare" ]; then
  echo "$allow lines without a reason:" >&2
  echo "$bare" | sed 's/^/  /' >&2
  fail=1
fi
exit "$fail"
