#!/usr/bin/env bash
# bench.sh — run one benchmark suite and append a run record to its
# trajectory file.
#
# Usage:
#   scripts/bench.sh                          # clickmodel suite -> BENCH_clickmodel.json
#   scripts/bench.sh -s engine                # engine read-path suite -> BENCH_engine.json
#   scripts/bench.sh -t 1x -o /tmp/s.json     # CI smoke: one iteration per bench
#   scripts/bench.sh -l "post-refactor"       # label the run
#
# Suites:
#   clickmodel — BenchmarkClickModel_* (fit substrate), BENCH_clickmodel.json
#   engine     — BenchmarkEngineScoreBatch/* (batch read path: full
#                corpus per strand cap, size={32,64,256,4096} on one
#                strand vs GOMAXPROCS, bare dispatch), BENCH_engine.json
#   micro      — BenchmarkMicroScore/* + BenchmarkExtractTermsPath/*
#                (compiled micro kernel vs map path) +
#                BenchmarkVocabLookup/terms={2k,200k}/{hit,miss} (one
#                frozen-vocabulary lookup, in cache and out of it) +
#                BenchmarkMicroTokenize/{corpus,title_punct,apostrophe,
#                long90,nonascii} (Scratch.Tokenize per line and MB/s,
#                by line shape) + BenchmarkMicroCompile/{2k,200k}
#                (core.Model.Compile: what a micro publish and a Save
#                pay to build the vocabulary), BENCH_engine.json
#   serve      — BenchmarkServeProtocol/* (JSON vs MBSP binary framing
#                over real TCP) + BenchmarkSnapshotLoad/mmap/* (a hot
#                swap from a mapped v2 artifact at 1/10/100MB),
#                BENCH_engine.json
#   optimize   — BenchmarkOptimizeCandidates/* (naive per-candidate
#                loop vs the amortised candidate-set pass vs the full
#                engine path at N=16/128/512), BENCH_optimize.json
#   stream     — BenchmarkStream* (online-loop ingest / fold / publish),
#                BENCH_stream.json
#   wal        — BenchmarkWAL* (feedback-log append per fsync policy,
#                ingest durability tax, boot replay), BENCH_wal.json
#   obs        — BenchmarkObs* (Histogram.Record primitive, serial and
#                contended, plus instrumented-vs-uninstrumented
#                ScoreBatch — the observability tax), BENCH_obs.json
#
# A trajectory file is a JSON array of run records ordered oldest to
# newest; each record carries the environment — commit, Go version and
# host shape (CPU model, nproc, GOMAXPROCS) — and the parsed
# ns/op / B/op / allocs/op (and req/s, ns/req, cpu-ns/req, MB/s where
# reported) of every benchmark in the suite.
set -euo pipefail

cd "$(dirname "$0")/.."

benchtime="1s"
out=""
label=""
suite="clickmodel"
while getopts "s:t:o:l:h" opt; do
  case "$opt" in
    s) suite="$OPTARG" ;;
    t) benchtime="$OPTARG" ;;
    o) out="$OPTARG" ;;
    l) label="$OPTARG" ;;
    h)
      sed -n '2,30p' "$0"
      exit 0
      ;;
    *) exit 2 ;;
  esac
done

case "$suite" in
  clickmodel) pattern="ClickModel"; default_out="BENCH_clickmodel.json" ;;
  engine)     pattern="EngineScoreBatch"; default_out="BENCH_engine.json" ;;
  micro)      pattern="MicroScore|ExtractTermsPath|VocabLookup|MicroTokenize|MicroCompile"; default_out="BENCH_engine.json" ;;
  serve)      pattern="ServeProtocol|SnapshotLoad"; default_out="BENCH_engine.json" ;;
  optimize)   pattern="OptimizeCandidates"; default_out="BENCH_optimize.json" ;;
  stream)     pattern="Stream"; default_out="BENCH_stream.json" ;;
  wal)        pattern="WAL"; default_out="BENCH_wal.json" ;;
  obs)        pattern="Obs"; default_out="BENCH_obs.json" ;;
  *) echo "bench.sh: unknown suite $suite (clickmodel, engine, micro, serve, optimize, stream, wal, obs)" >&2; exit 2 ;;
esac
out="${out:-$default_out}"

# The wal suite prices an I/O path: pin its scratch space to tmpfs
# when available, so the trajectory tracks the code and not the
# backing device's day-to-day variance.
if [ "$suite" = "wal" ] && [ -d /dev/shm ] && [ -w /dev/shm ]; then
  export TMPDIR=/dev/shm
fi

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -bench="$pattern" -benchmem -run '^$' -benchtime "$benchtime" . | tee "$raw"

# Parse benchmark lines by unit token, so extra ReportMetric columns
# (req/s) are picked up wherever they appear.
results=$(awk '
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^Benchmark/, "", name)
    ns = ""; bytes = ""; allocs = ""; reqs = ""; sess = ""; cand = ""; nsreq = ""; cpureq = ""; mbs = ""
    for (i = 3; i <= NF; i++) {
      if ($i == "ns/op") ns = $(i-1)
      else if ($i == "B/op") bytes = $(i-1)
      else if ($i == "allocs/op") allocs = $(i-1)
      else if ($i == "req/s") reqs = $(i-1)
      else if ($i == "sessions/s") sess = $(i-1)
      else if ($i == "cand/s") cand = $(i-1)
      else if ($i == "ns/req") nsreq = $(i-1)
      else if ($i == "cpu-ns/req") cpureq = $(i-1)
      else if ($i == "MB/s") mbs = $(i-1)
    }
    if (ns == "") next
    extra = ""
    if (reqs != "") extra = sprintf(", \"req_per_s\": %s", reqs)
    if (nsreq != "") extra = extra sprintf(", \"ns_per_req\": %s", nsreq)
    if (cpureq != "") extra = extra sprintf(", \"cpu_ns_per_req\": %s", cpureq)
    if (sess != "") extra = extra sprintf(", \"sessions_per_s\": %s", sess)
    if (cand != "") extra = extra sprintf(", \"cand_per_s\": %s", cand)
    if (mbs != "") extra = extra sprintf(", \"mb_per_s\": %s", mbs)
    printf "%s    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s%s}", sep, name, $2, ns, bytes, allocs, extra
    sep = ",\n"
  }
' "$raw")

if [ -z "$results" ]; then
  echo "bench.sh: no results parsed for suite $suite (pattern $pattern)" >&2
  exit 1
fi

# json_escape backslashes and double quotes so free-form fields (the
# -l label in particular) cannot corrupt the trajectory file.
json_escape() {
  printf '%s' "$1" | sed 's/\\/\\\\/g; s/"/\\"/g'
}

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
goversion=$(go env GOVERSION)
date=$(date -u +%Y-%m-%dT%H:%M:%SZ)
label=$(json_escape "$label")
benchtime_esc=$(json_escape "$benchtime")

# Host shape, so that two records are only ever compared knowingly
# across hosts: the CPU model as go test printed it, the CPUs this
# process may run on, and the GOMAXPROCS the benchmarks ran at — the
# -N suffix go test puts on their names (it omits the suffix at 1).
cpu=$(json_escape "$(sed -n 's/^cpu: *//p' "$raw" | head -n 1)")
ncpu=$(nproc 2>/dev/null || echo 0)
gomaxprocs=$(awk '/^Benchmark/ { n = 1; if (match($1, /-[0-9]+$/)) n = substr($1, RSTART + 1); print n; exit }' "$raw")

entry=$(printf '  {\n    "date": "%s",\n    "commit": "%s",\n    "label": "%s",\n    "go": "%s",\n    "host": {"cpu": "%s", "nproc": %s, "gomaxprocs": %s},\n    "benchtime": "%s",\n    "results": [\n%s\n    ]\n  }' \
  "$date" "$commit" "$label" "$goversion" "$cpu" "$ncpu" "${gomaxprocs:-1}" "$benchtime_esc" "$results")

if [ ! -s "$out" ]; then
  printf '[\n%s\n]\n' "$entry" > "$out"
else
  # The trajectory file ends with "]" on its own line; splice before it.
  if [ "$(tail -n 1 "$out")" != "]" ]; then
    echo "bench.sh: $out does not end with ']' — refusing to append" >&2
    exit 1
  fi
  tmp=$(mktemp)
  sed '$ d' "$out" > "$tmp"
  # Add a comma to the previous record's closing brace.
  sed -i '$ s/}$/},/' "$tmp"
  printf '%s\n]\n' "$entry" >> "$tmp"
  mv "$tmp" "$out"
fi

echo "bench.sh: appended run ($label) to $out"
