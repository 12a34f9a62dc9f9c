#!/usr/bin/env bash
# lint.sh — the repo's static gate: gofmt, go vet, mbvet (the custom
# invariant analyzers, driven through go vet's -vettool protocol so
# cmd/go handles package loading and caching), the checks that the two
# test oracles stay in tests (the reference scorer internal/core/coreref;
# feedbackRequest, the encoding/json shape of POST /v1/feedback), the
# checks that the token hash, the splitting rule, the vocabulary
# builder, the counting family's closed forms, the choice of a click model's estimator and
# latency measurement each keep their one owner, the check that every
# *.md a Go file names exists and that every test DESIGN.md and README.md
# cite is declared, scripts/surface.sh (every func a binary does not link
# is on scripts/unreached.allow with a reason), and — when the pinned
# tools are installed — staticcheck and govulncheck.
#
# Usage: scripts/lint.sh
# Exits nonzero on any finding. CI installs staticcheck/govulncheck
# with pinned versions; locally they are skipped with a notice if
# absent (the container has no network to fetch them).
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

echo "== gofmt"
unformatted=$(gofmt -l . | grep -v '/testdata/' || true)
if [ -n "$unformatted" ]; then
  echo "gofmt needed on:" >&2
  echo "$unformatted" >&2
  fail=1
fi

echo "== go vet"
go vet ./... || fail=1

echo "== mbvet (invariant analyzers)"
mkdir -p bin
go build -o bin/mbvet ./cmd/mbvet
go vet -vettool="$(pwd)/bin/mbvet" ./... || fail=1

echo "== reference package stays test-only"
# coreref is the oracle the parity suites score against; only _test.go
# files may import it (.Imports lists non-test imports).
importers=$(go list -f '{{$p := .ImportPath}}{{range .Imports}}{{if eq . "repro/internal/core/coreref"}}{{$p}}{{"\n"}}{{end}}{{end}}' ./...)
if [ -n "$importers" ]; then
  echo "non-test code imports repro/internal/core/coreref:" >&2
  echo "$importers" >&2
  fail=1
fi

echo "== the feedback route's encoding/json shape stays a test oracle"
# POST /v1/feedback is scanned by hand; feedbackRequest is what
# encoding/json would decode, kept in _test.go to check the scanner.
users=$(grep -rl --include='*.go' feedbackRequest internal/server | grep -v '_test\.go$' || true)
if [ -n "$users" ]; then
  echo "non-test code references feedbackRequest:" >&2
  echo "$users" >&2
  fail=1
fi

echo "== the token hash has one owner"
# hashMult1 is the multiplier of hashToken, the one definition of a
# token's hash (and of HashLine's length seed beside it). Artifacts carry
# tables placed under that hash, so a second spelling of the recurrence
# elsewhere is a second scheme waiting to disagree with the first.
spellers=$(grep -rl --include='*.go' hashMult1 . | grep -v '^\./\.bench_build/' \
  | grep -v -x -e './internal/textproc/zerocopy.go' -e './internal/textproc/candidate.go' || true)
if [ -n "$spellers" ]; then
  echo "hashMult1 is spelled outside internal/textproc/{zerocopy,candidate}.go:" >&2
  echo "$spellers" >&2
  fail=1
fi

echo "== the vocabulary has one builder"
# textproc.FreezeVocab takes a term list and (*FrozenVocab).place is the
# one placement; the growable second hash table that used to feed it was
# called TermVocab.
builders=$(grep -rlw --include='*.go' TermVocab . | grep -v '^\./\.bench_build/' | grep -v '_test\.go$' || true)
if [ -n "$builders" ]; then
  echo "non-test code names TermVocab:" >&2
  echo "$builders" >&2
  fail=1
fi

echo "== the splitting rule has one owner"
# textproc's Scratch.Tokenize normalises a line and cuts it into token
# spans, and every term is a run of them; a strings.Fields beside a
# textproc import is that rule written a second time.
splitters=$(grep -rl --include='*.go' 'strings\.Fields(' . \
  | grep -v -e '^\./\.bench_build/' -e '/testdata/' -e '_test\.go$' -e '^\./internal/textproc/' \
  | xargs -r grep -l '"repro/internal/textproc"' || true)
if [ -n "$splitters" ]; then
  echo "non-test code outside internal/textproc imports textproc and calls strings.Fields:" >&2
  echo "$splitters" >&2
  fail=1
fi

echo "== the counting models' closed forms are written once"
# SDBN's, Cascade's and DCM's Laplace ratios live in FitStats
# (internal/clickmodel/stats.go); their FitLog fills a Stats and calls it.
ratios=$(grep -l 'LaplaceA) /' internal/clickmodel/sdbn.go internal/clickmodel/cascade.go internal/clickmodel/dcm.go || true)
if [ -n "$ratios" ]; then
  echo "a counting-family ratio is spelled outside stats.go:" >&2
  echo "$ratios" >&2
  fail=1
fi

echo "== a click model's estimator is picked in one place"
# clickmodel.Train constructs a model with its iteration count and picks
# FitStats or FitLog. A type assertion on StatsFitter elsewhere, or on
# an anonymous interface that makes FitLog, FitStats or SetIterations an
# optional half of a model again, is a second estimator switch.
switchers=$(grep -rlE --include='*.go' \
  -e '\.\(clickmodel\.StatsFitter\)' \
  -e 'case .*clickmodel\.StatsFitter\b' \
  -e '(\.\(|case )interface *\{ *(FitLog|FitStats|SetIterations)\(' . \
  | grep -v -e '^\./\.bench_build/' -e '/testdata/' -e '_test\.go$' || true)
if [ -n "$switchers" ]; then
  echo "non-test code outside clickmodel.Train type-asserts a fit interface:" >&2
  echo "$switchers" >&2
  fail=1
fi

echo "== cmd/loadgen replays feedback and measures nothing"
# Latency and MBSP traffic are benchmark/'s, which checks every reply and
# paces open-loop; a histogram or a binary client in loadgen is the
# second load generator coming back.
measuring=$(go list -f '{{range .Imports}}{{.}}{{"\n"}}{{end}}' ./cmd/loadgen \
  | grep -x -e 'repro/internal/server/binproto' -e 'repro/internal/obs' || true)
if [ -n "$measuring" ]; then
  echo "cmd/loadgen imports:" >&2
  echo "$measuring" >&2
  fail=1
fi

echo "== every doc a Go file names exists"
# A Go file outside benchmark/ that names a *.md file sends its reader
# there, so the file must be in the repository: at that path from the
# root, or at a path that ends in it.
docs=$(find . -name '*.md' -not -path './.git/*' -not -path './.bench_build/*' | sed 's|^\./||')
missing=$(grep -rnoE --include='*.go' '[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b' . \
  | grep -v -e '^\./\.bench_build/' -e '^\./benchmark/' \
  | while IFS= read -r hit; do
      name=${hit##*:}
      name=${name#./}
      found=""
      for d in $docs; do
        case "$d" in "$name" | */"$name") found=1; break ;; esac
      done
      [ -n "$found" ] || echo "$hit"
    done || true)
if [ -n "$missing" ]; then
  echo "Go files name docs the repository does not hold:" >&2
  echo "$missing" >&2
  fail=1
fi

echo "== every test a doc cites exists"
# DESIGN.md and README.md tie claims to named tests, benchmarks and fuzz
# targets; each name must be declared by a _test.go file, in the module
# or in benchmark/. A trailing * (BenchmarkAblation_*) cites a prefix.
# CHANGES.md and ROADMAP.md are history and name what once was.
declared=$(grep -rhoE --include='*_test.go' '^func (Test|Benchmark|Fuzz)[A-Za-z0-9_]+' . \
  --exclude-dir=.bench_build --exclude-dir=testdata | sed 's/^func //' | sort -u)
unknown=$(grep -noE '\b(Test|Benchmark|Fuzz)[A-Z_][A-Za-z0-9_]*\*?' DESIGN.md README.md \
  | while IFS= read -r hit; do
      name=${hit##*:}
      case "$name" in
        *'*') grep -q "^${name%\*}" <<< "$declared" ;;
        *) grep -qx "$name" <<< "$declared" ;;
      esac || echo "$hit"
    done || true)
if [ -n "$unknown" ]; then
  echo "docs cite tests no _test.go declares:" >&2
  echo "$unknown" >&2
  fail=1
fi

echo "== every func a binary links, or a reason to keep it"
# surface.sh prints the unreached funcs and fails on one missing from
# scripts/unreached.allow, or on an allowlist line that is stale.
./scripts/surface.sh || fail=1

echo "== staticcheck"
if command -v staticcheck >/dev/null 2>&1; then
  staticcheck ./... || fail=1
else
  echo "staticcheck not installed; skipping (CI installs it pinned)"
fi

echo "== govulncheck"
if command -v govulncheck >/dev/null 2>&1; then
  govulncheck ./... || fail=1
else
  echo "govulncheck not installed; skipping (CI installs it pinned)"
fi

exit "$fail"
