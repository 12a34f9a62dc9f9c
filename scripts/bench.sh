#!/usr/bin/env bash
# bench.sh — run one benchmark suite and append a run record to its
# trajectory file; or, with -against, run it on two trees alternately
# and append one record for each.
#
# Usage:
#   scripts/bench.sh                          # clickmodel suite -> BENCH_clickmodel.json
#   scripts/bench.sh -s engine                # engine read-path suite -> BENCH_engine.json
#   scripts/bench.sh -t 1x -o /tmp/s.json     # CI smoke: one iteration per bench
#   scripts/bench.sh -l "post-refactor"       # label the run
#   scripts/bench.sh -s stream -against HEAD~1 -rounds 5
#                                             # A/B: HEAD~1 against the working tree
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
#   stream     — BenchmarkStream* (online-loop ingest / fold / publish)
#                + BenchmarkCountingServe/* (what a reader pays per
#                session of a published counting model), both folds and
#                reads in two (query, doc) shapes, BENCH_stream.json
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
# reported, and artifact-B, an artifact's size in bytes) of every
# benchmark in the suite.
#
# -against REV is the before/after procedure a performance claim needs:
# REV is checked out under a temp dir (git archive), the suite's test
# binary is built once there and once from the working tree, and the two
# run alternately for -rounds rounds (default 5), so that a drift in
# host speed lands on both sides; the working tree runs first on even
# rounds. The benchmark code is held fixed: the
# working tree's bench_test.go replaces REV's when it compiles there, and
# REV keeps its own otherwise (the record says which). Two records are
# appended, REV's and the working tree's, each benchmark with the median
# ns/op of its rounds and their min and max (ns_per_op, ns_per_op_min,
# ns_per_op_max), median B/op and allocs/op. A table goes to stdout:
# each side's median and interquartile spread (as a percentage of its
# median), the ratio, the rounds the working tree won, and "unresolved"
# where the medians differ by no more than REV's interquartile spread —
# a move that small is inside what REV does against itself.
set -euo pipefail

cd "$(dirname "$0")/.."

benchtime="1s"
out=""
label=""
suite="clickmodel"
against=""
rounds=5
usage() { sed -n '2,66p' "$0"; }
while [ $# -gt 0 ]; do
  case "$1" in
    -s) suite="$2"; shift 2 ;;
    -t) benchtime="$2"; shift 2 ;;
    -o) out="$2"; shift 2 ;;
    -l) label="$2"; shift 2 ;;
    -against) against="$2"; shift 2 ;;
    -rounds) rounds="$2"; shift 2 ;;
    -h|-help) usage; exit 0 ;;
    *) echo "bench.sh: unknown argument $1 (see -h)" >&2; exit 2 ;;
  esac
done

case "$suite" in
  clickmodel) pattern="ClickModel"; default_out="BENCH_clickmodel.json" ;;
  engine)     pattern="EngineScoreBatch"; default_out="BENCH_engine.json" ;;
  micro)      pattern="MicroScore|ExtractTermsPath|VocabLookup|MicroTokenize|MicroCompile"; default_out="BENCH_engine.json" ;;
  serve)      pattern="ServeProtocol|SnapshotLoad"; default_out="BENCH_engine.json" ;;
  optimize)   pattern="OptimizeCandidates"; default_out="BENCH_optimize.json" ;;
  stream)     pattern="Stream|CountingServe"; default_out="BENCH_stream.json" ;;
  wal)        pattern="WAL"; default_out="BENCH_wal.json" ;;
  obs)        pattern="Obs"; default_out="BENCH_obs.json" ;;
  *) echo "bench.sh: unknown suite $suite (clickmodel, engine, micro, serve, optimize, stream, wal, obs)" >&2; exit 2 ;;
esac
out="${out:-$default_out}"
case "$rounds" in
  ''|*[!0-9]*|0) echo "bench.sh: -rounds wants a positive count, not '$rounds'" >&2; exit 2 ;;
esac

# The wal suite prices an I/O path: pin its scratch space to tmpfs
# when available, so the trajectory tracks the code and not the
# backing device's day-to-day variance.
if [ "$suite" = "wal" ] && [ -d /dev/shm ] && [ -w /dev/shm ]; then
  export TMPDIR=/dev/shm
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# json_escape backslashes and double quotes so free-form fields (the
# -l label in particular) cannot corrupt the trajectory file.
json_escape() {
  printf '%s' "$1" | sed 's/\\/\\\\/g; s/"/\\"/g'
}

# results RAW... prints the JSON results of benchmark output: one entry
# per benchmark, its value the median over every run of it in the files
# (a single run is its own median), with the min and max of ns/op beside
# the median when there was more than one. Lines are parsed by unit
# token, so extra ReportMetric columns (req/s) are picked up wherever
# they appear.
results() {
  awk '
    function median(list,    n, v, i, j, t) {
      n = split(list, v, " ")
      for (i = 2; i <= n; i++)
        for (j = i; j > 1 && v[j-1] + 0 > v[j] + 0; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
      lo = v[1]; hi = v[n]
      return v[int((n + 1) / 2)]
    }
    /^Benchmark/ {
      name = $1
      sub(/-[0-9]+$/, "", name)
      sub(/^Benchmark/, "", name)
      if (!(name in runs)) order[++count] = name
      runs[name]++
      iters[name] = iters[name] " " $2
      for (i = 3; i <= NF; i++) {
        u = $i
        if (u == "ns/op" || u == "B/op" || u == "allocs/op" || u == "req/s" || u == "sessions/s" || \
            u == "cand/s" || u == "ns/req" || u == "cpu-ns/req" || u == "MB/s" || u == "artifact-B") val[name, u] = val[name, u] " " $(i-1)
      }
    }
    END {
      split("req/s sessions/s cand/s ns/req cpu-ns/req MB/s artifact-B", units, " ")
      split("req_per_s sessions_per_s cand_per_s ns_per_req cpu_ns_per_req mb_per_s artifact_bytes", keys, " ")
      for (k = 1; k <= count; k++) {
        name = order[k]
        if (val[name, "ns/op"] == "") continue
        ns = median(val[name, "ns/op"]); nlo = lo; nhi = hi
        line = sprintf("{\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s", name, median(iters[name]), ns)
        if (runs[name] > 1) line = line sprintf(", \"ns_per_op_min\": %s, \"ns_per_op_max\": %s", nlo, nhi)
        line = line sprintf(", \"bytes_per_op\": %s, \"allocs_per_op\": %s", median(val[name, "B/op"]), median(val[name, "allocs/op"]))
        for (u = 1; u <= 7; u++)
          if (val[name, units[u]] != "") line = line sprintf(", \"%s\": %s", keys[u], median(val[name, units[u]]))
        printf "%s    %s}", sep, line
        sep = ",\n"
      }
    }
  ' "$@"
}

# append_record COMMIT LABEL RAW... appends one run record to $out.
append_record() {
  local commit="$1" rlabel res cpu gomaxprocs entry extra=""
  rlabel=$(json_escape "$2")
  shift 2
  res=$(results "$@")
  if [ -z "$res" ]; then
    echo "bench.sh: no results parsed for suite $suite (pattern $pattern)" >&2
    exit 1
  fi
  # Host shape, so that two records are only ever compared knowingly
  # across hosts: the CPU model as go test printed it, the CPUs this
  # process may run on, and the GOMAXPROCS the benchmarks ran at — the
  # -N suffix go test puts on their names (it omits the suffix at 1).
  cpu=$(json_escape "$(sed -n 's/^cpu: *//p' "$1" | head -n 1)")
  gomaxprocs=$(awk '/^Benchmark/ { n = 1; if (match($1, /-[0-9]+$/)) n = substr($1, RSTART + 1); print n; exit }' "$1")
  if [ -n "$against" ]; then
    extra=$(printf ',\n    "rounds": %s' "$rounds")
  fi
  entry=$(printf '  {\n    "date": "%s",\n    "commit": "%s",\n    "label": "%s",\n    "go": "%s",\n    "host": {"cpu": "%s", "nproc": %s, "gomaxprocs": %s},\n    "benchtime": "%s"%s,\n    "results": [\n%s\n    ]\n  }' \
    "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$commit" "$rlabel" "$(go env GOVERSION)" "$cpu" "$(nproc 2>/dev/null || echo 0)" \
    "${gomaxprocs:-1}" "$(json_escape "$benchtime")" "$extra" "$res")

  if [ ! -s "$out" ]; then
    printf '[\n%s\n]\n' "$entry" > "$out"
    return
  fi
  # The trajectory file ends with "]" on its own line; splice before it.
  if [ "$(tail -n 1 "$out")" != "]" ]; then
    echo "bench.sh: $out does not end with ']' — refusing to append" >&2
    exit 1
  fi
  sed '$ d' "$out" > "$tmp/splice"
  # Add a comma to the previous record's closing brace.
  sed -i '$ s/}$/},/' "$tmp/splice"
  printf '%s\n]\n' "$entry" >> "$tmp/splice"
  cp "$tmp/splice" "$out"
}

head_commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

if [ -z "$against" ]; then
  go test -bench="$pattern" -benchmem -run '^$' -benchtime "$benchtime" . | tee "$tmp/raw"
  append_record "$head_commit" "$label" "$tmp/raw"
  echo "bench.sh: appended run ($label) to $out"
  exit 0
fi

rev=$(git rev-parse --short "$against^{commit}")
mkdir -p "$tmp/rev"
git archive "$rev" | tar -x -C "$tmp/rev"
bench_src="its own bench_test.go"
cp bench_test.go "$tmp/rev/bench_test.go"
if (cd "$tmp/rev" && go test -c -o "$tmp/rev.test" . 2>"$tmp/rev.build"); then
  bench_src="the working tree's bench_test.go"
else
  echo "bench.sh: the working tree's bench_test.go does not build at $rev; $rev runs its own" >&2
  git show "$rev:bench_test.go" > "$tmp/rev/bench_test.go"
  (cd "$tmp/rev" && go test -c -o "$tmp/rev.test" .)
fi
go test -c -o "$tmp/tree.test" .

# REV runs first on odd rounds and the working tree on even ones, so a
# drift inside a round does not always land on the same side.
for r in $(seq 1 "$rounds"); do
  order="rev tree"
  [ $((r % 2)) -eq 0 ] && order="tree rev"
  for side in $order; do
    dir=.
    [ "$side" = rev ] && dir="$tmp/rev"
    echo "bench.sh: round $r/$rounds, $side" >&2
    if ! (cd "$dir" && "$tmp/$side.test" -test.run '^$' -test.bench "$pattern" -test.benchmem -test.benchtime "$benchtime" -test.timeout 60m) > "$tmp/round"; then
      cat "$tmp/round" >&2
      echo "bench.sh: the $side binary failed in round $r" >&2
      exit 1
    fi
    cat "$tmp/round" >> "$tmp/$side.raw"
    grep '^Benchmark' "$tmp/round" >&2 || true
  done
done

# The medians side by side with each side's interquartile spread, and
# in how many rounds the working tree beat REV (a round pairs the two
# runs of one benchmark it holds).
awk '
  /^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name); sub(/^Benchmark/, "", name)
    ns = ""
    for (i = 3; i <= NF; i++) if ($i == "ns/op") ns = $(i-1)
    if (ns == "") next
    k = (FILENAME == ARGV[1]) ? "rev" : "tree"
    n = ++seen[k, name]
    v[k, name, n] = ns
    if (k == "rev" && n == 1) order[++count] = name
  }
  # q returns the p-quantile of side k'"'"'s rounds of name, interpolated
  # between the sorted values; the median is the lower middle value, as
  # in the records.
  function q(k, name, p,    n, a, i, j, t, pos, lo) {
    n = seen[k, name]
    for (i = 1; i <= n; i++) a[i] = v[k, name, i]
    for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j-1] + 0 > a[j] + 0; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
    if (p == 0.5) return a[int((n + 1) / 2)]
    pos = 1 + p * (n - 1); lo = int(pos)
    return lo < n ? a[lo] + (pos - lo) * (a[lo+1] - a[lo]) : a[n]
  }
  END {
    printf "%-60s %12s %6s %12s %6s %7s %6s\n", "benchmark (ns/op medians, IQR % of median)", "rev", "iqr", "tree", "iqr", "ratio", "wins"
    for (c = 1; c <= count; c++) {
      name = order[c]
      if (!seen["tree", name]) continue
      wins = 0; pairs = 0
      for (i = 1; i <= seen["rev", name] && i <= seen["tree", name]; i++) {
        pairs++
        if (v["tree", name, i] + 0 < v["rev", name, i] + 0) wins++
      }
      a = q("rev", name, 0.5); b = q("tree", name, 0.5)
      ra = q("rev", name, 0.75) - q("rev", name, 0.25)
      rb = q("tree", name, 0.75) - q("tree", name, 0.25)
      d = b - a; if (d < 0) d = -d
      printf "%-60s %12s %5.1f%% %12s %5.1f%% %7.3f %3d/%d%s\n", name, a, (a > 0 ? 100 * ra / a : 0), b, (b > 0 ? 100 * rb / b : 0), \
        (a > 0 ? b / a : 0), wins, pairs, (d <= ra ? "  unresolved" : "")
    }
  }
' "$tmp/rev.raw" "$tmp/tree.raw"

base="${label:+$label: }"
append_record "$rev" "${base}$rev, medians of $rounds rounds alternated with the working tree (benchmarks: $bench_src)" "$tmp/rev.raw"
append_record "$head_commit" "${base}working tree on top of $head_commit, medians of $rounds rounds alternated with $rev" "$tmp/tree.raw"
echo "bench.sh: appended $rev and the working tree to $out"
