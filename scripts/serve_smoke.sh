#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke of the fit → snapshot → serve →
# feedback → republish loop: build the three binaries, fit a small PBM
# and snapshot it (a v2 artifact), start microserve with the artifact,
# the online
# learner and the feedback WAL enabled, hit /healthz and /metrics,
# score through both browsing levels, rank candidate snippets through
# /v1/optimize (explicit candidates and server-side generation; MBSP
# score and optimize traffic on the shared port is benchmark/run.sh
# -smoke's, which checks every reply), hot-swap the artifact a second
# time, replay simulated feedback with loadgen until a new model
# version auto-publishes, export it back to disk through the admin
# surface — then kill -9 the server, restart it on the same WAL
# directory with a 60 s publish interval, and require the replayed log
# to republish the online model at once, with no fresh traffic and no
# tick, before shutting down gracefully. Exits
# non-zero on any failed step. CI runs this; it is equally useful
# locally.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
addr="127.0.0.1:8389"
srv_pid=""
cleanup() {
  [ -n "$srv_pid" ] && kill "$srv_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "serve_smoke: building binaries"
go build -o "$workdir/clickmodelfit" ./cmd/clickmodelfit
go build -o "$workdir/microserve" ./cmd/microserve
go build -o "$workdir/loadgen" ./cmd/loadgen

echo "serve_smoke: fitting pbm and writing snapshot"
"$workdir/clickmodelfit" -sessions 1500 -groups 60 -model pbm -iters 3 -o "$workdir/pbm.bin" >/dev/null
[ "$(head -c 4 "$workdir/pbm.bin")" = "MBS2" ] || { echo "serve_smoke: the fitted snapshot is not a v2 artifact" >&2; exit 1; }

echo "serve_smoke: starting microserve (online learning + WAL on)"
"$workdir/microserve" -addr "$addr" -load "pbm=$workdir/pbm.bin" \
  -online "model=sdbn+micro,interval=1s,min=100" \
  -wal "dir=$workdir/wal,fsync=interval=50ms" \
  -trace-slow 0 -trace-ring 64 \
  -ratelimit "rate=100000,burst=200000" >"$workdir/serve.log" 2>&1 &
srv_pid=$!

up=""
for _ in $(seq 100); do
  if curl -fs "http://$addr/healthz" >/dev/null 2>&1; then up=1; break; fi
  sleep 0.1
done
if [ -z "$up" ]; then
  echo "serve_smoke: server never came up" >&2
  cat "$workdir/serve.log" >&2
  exit 1
fi

series() { # series <name>: one unlabelled series' value on /metrics
  curl -fs "http://$addr/metrics" | sed -n "s/^$1 \([0-9]*\)\$/\1/p"
}

check() { # check <name> <got> <needle>
  case "$2" in
    *"$3"*) echo "serve_smoke: $1 ok" ;;
    *) echo "serve_smoke: $1 FAILED: $2" >&2; exit 1 ;;
  esac
}

check healthz "$(curl -fs "http://$addr/healthz")" '"status":"ok"'
check models "$(curl -fs "http://$addr/v1/models")" '"name":"pbm"'
check macro-score "$(curl -fs -X POST "http://$addr/v1/score" \
  -d '{"id":"s1","model":"pbm","session":{"query":"q","docs":["a","b","c"],"clicks":[false,false,false]}}')" '"model":"pbm"'
check micro-score "$(curl -fs -X POST "http://$addr/v1/score" \
  -d '{"id":"m1","lines":["Acme Air","Find cheap flights"]}')" '"model":"micro"'
check batch "$(curl -fs -X POST "http://$addr/v1/score/batch" \
  -d '{"requests":[{"id":"a","lines":["Find cheap flights"]}]}')" '"id":"a"'
check optimize "$(curl -fs -X POST "http://$addr/v1/optimize" \
  -d '{"id":"opt1","lines":["Acme Air","Find cheap flights"],"candidates":[["Acme Air","Find cheap flights to Rome"],["Acme Air"]],"top_k":1}')" '"best":'
check optimize-generate "$(curl -fs -X POST "http://$addr/v1/optimize" \
  -d '{"id":"opt2","lines":["Acme Air","Find cheap flights"],"inventory":["cheap flights to rome","book today"]}')" '"generated":'
check hot-swap "$(curl -fs -X POST "http://$addr/v1/models/pbm/load" \
  -d "{\"path\":\"$workdir/pbm.bin\"}")" '"version":2'
check rollback "$(curl -fs -X POST "http://$addr/v1/models/pbm/rollback" -d '{}')" '"version":1'

# --- v2 zero-parse round trip: conv → mmap load → parity → export ---
echo "serve_smoke: v2 zero-parse round trip"
score_ctr() {
  curl -fs -X POST "http://$addr/v1/score" \
    -d '{"id":"rt","model":"pbm","session":{"query":"q","docs":["a","b","c"],"clicks":[false,false,false]}}' \
    | sed -n 's/.*"ctr":\([0-9.eE+-]*\).*/\1/p'
}
base_ctr=$(score_ctr)
[ -n "$base_ctr" ] || { echo "serve_smoke: baseline score failed" >&2; exit 1; }
cp "$workdir/pbm.bin" "$workdir/pbm-v2.bin"
"$workdir/clickmodelfit" -conv "$workdir/pbm-v2.bin" >/dev/null 2>&1
cmp -s "$workdir/pbm.bin" "$workdir/pbm-v2.bin" || { echo "serve_smoke: -conv changed a current v2 artifact" >&2; exit 1; }
check v2-load "$(curl -fs -X POST "http://$addr/v1/models/pbm/load" \
  -d "{\"path\":\"$workdir/pbm-v2.bin\"}")" '"name":"pbm"'
v2_ctr=$(score_ctr)
if [ "$v2_ctr" != "$base_ctr" ]; then
  echo "serve_smoke: v2 score parity FAILED: served $base_ctr vs reloaded $v2_ctr" >&2
  exit 1
fi
# Export the loaded model back out through the replica-sync surface:
# the bytes must be a v2 artifact, the ETag must round-trip as a 304,
# and reloading the export must preserve the score exactly.
curl -fs -D "$workdir/snap.hdr" -o "$workdir/pbm-exported.bin" "http://$addr/v1/models/pbm/snapshot"
etag=$(grep -i '^etag:' "$workdir/snap.hdr" | tr -d '\r' | cut -d' ' -f2)
[ -n "$etag" ] || { echo "serve_smoke: snapshot export carried no ETag" >&2; exit 1; }
code=$(curl -fs -o /dev/null -w '%{http_code}' -H "If-None-Match: $etag" "http://$addr/v1/models/pbm/snapshot")
[ "$code" = "304" ] || { echo "serve_smoke: If-None-Match $etag got $code, want 304" >&2; exit 1; }
[ "$(head -c 4 "$workdir/pbm-exported.bin")" = "MBS2" ] || { echo "serve_smoke: the exported pbm is not a v2 artifact" >&2; exit 1; }
check v2-reload "$(curl -fs -X POST "http://$addr/v1/models/pbm/load" \
  -d "{\"path\":\"$workdir/pbm-exported.bin\"}")" '"name":"pbm"'
reload_ctr=$(score_ctr)
if [ "$reload_ctr" != "$base_ctr" ]; then
  echo "serve_smoke: exported-artifact parity FAILED: $base_ctr vs $reload_ctr" >&2
  exit 1
fi
echo "serve_smoke: v2 round trip ok (ctr $base_ctr preserved across conv/export/reload)"

# --- -conv of an older placement, served at its golden CTR; v1 refused ---
# parent_8bb530c/micro.mbs2 was written before the vocabulary's hash
# scheme changed: it loads only by re-placing its probe tables, and
# -conv rewrites it as a current artifact. golden.json beside it holds
# that build's answers by bits; its first micro input scored
# 0x3f723a0bba4ac0b6, which JSON prints as below.
echo "serve_smoke: -conv of an older artifact"
golden_ctr=0.0044498880494502815
score_parent() {
  curl -fs -X POST "http://$addr/v1/score" \
    -d '{"id":"g0","model":"parent","max_n":1,"lines":["wearhouse outlet visit us","quality office chairs and save more curated bundle","always no reservation costs everyday collection"]}'
}
cp internal/engine/testdata/parent_8bb530c/micro.mbs2 "$workdir/micro-old.bin"
"$workdir/clickmodelfit" -conv "$workdir/micro-old.bin" >/dev/null 2>&1
! cmp -s internal/engine/testdata/parent_8bb530c/micro.mbs2 "$workdir/micro-old.bin" \
  || { echo "serve_smoke: -conv left an artifact of the old placement as it was" >&2; exit 1; }
check conv-load "$(curl -fs -X POST "http://$addr/v1/models/parent/load" \
  -d "{\"path\":\"$workdir/micro-old.bin\"}")" '"name":"parent"'
old_ctr=$(score_parent | sed -n 's/.*"ctr":\([0-9.eE+-]*\).*/\1/p')
if [ "$old_ctr" != "$golden_ctr" ]; then
  echo "serve_smoke: converted artifact scores $old_ctr, its writer answered $golden_ctr" >&2
  exit 1
fi
echo "serve_smoke: -conv ok (golden ctr $golden_ctr)"
# A v1 artifact ("MBSN") is refused by name, and the version that was
# serving still is.
printf 'MBSN\001\003pbm and then a v1 payload' >"$workdir/old-v1.bin"
code=$(curl -s -o "$workdir/v1-load.json" -w '%{http_code}' -X POST "http://$addr/v1/models/parent/load" \
  -d "{\"path\":\"$workdir/old-v1.bin\"}")
[ "$code" != "200" ] || { echo "serve_smoke: a v1 artifact loaded" >&2; exit 1; }
check v1-refused "$code $(cat "$workdir/v1-load.json")" 'v1 artifact'
check v1-keeps-serving "$(score_parent)" "\"ctr\":$golden_ctr,"
check v1-keeps-version "$(score_parent)" '"model_version":1'

echo "serve_smoke: replaying feedback traffic"
"$workdir/loadgen" -addr "http://$addr" -sessions 2000 -batch 250 -snippets 2 -clients 4

published=""
for _ in $(seq 100); do
  models=$(curl -fs "http://$addr/v1/models")
  case "$models" in
    *'"name":"sdbn"'*'"source":"online"'*) published=1; break ;;
  esac
  sleep 0.1
done
if [ -z "$published" ]; then
  echo "serve_smoke: online model never auto-published" >&2
  curl -fs "http://$addr/healthz" >&2 || true
  cat "$workdir/serve.log" >&2
  exit 1
fi
echo "serve_smoke: online publish ok"

health=$(curl -fs "http://$addr/healthz")
check stream-counters "$health" '"publishes":'
optimizes=$(printf '%s' "$health" | sed -n 's/.*"optimizes":\([0-9]*\).*/\1/p')
if [ -z "$optimizes" ] || [ "$optimizes" -ne 2 ]; then
  echo "serve_smoke: ${optimizes:-0} optimize calls counted (want the curl pair above)" >&2
  echo "$health" >&2
  exit 1
fi
echo "serve_smoke: optimize-counters ok ($optimizes calls)"
accepted=$(printf '%s' "$health" | sed -n 's/.*"accepted":\([0-9]*\).*/\1/p')
if [ -z "$accepted" ] || [ "$accepted" -lt 2000 ]; then
  echo "serve_smoke: stream accepted only ${accepted:-0} of the ~2016 replayed events" >&2
  echo "$health" >&2
  exit 1
fi
echo "serve_smoke: stream-accepted ok ($accepted events)"

check online-score "$(curl -fs -X POST "http://$addr/v1/score" \
  -d '{"id":"o1","model":"sdbn","session":{"query":"serp","docs":["a","b"],"clicks":[false,false]}}')" '"model":"sdbn"'

check snapshot-export "$(curl -fs -X POST "http://$addr/v1/models/sdbn/snapshot" \
  -d "{\"path\":\"$workdir/sdbn-online.bin\"}")" '"bytes":'
[ -s "$workdir/sdbn-online.bin" ] || { echo "serve_smoke: exported snapshot missing" >&2; exit 1; }
echo "serve_smoke: snapshot export ok"

check wal-counters "$health" '"wal":'
check ratelimit-counters "$health" '"ratelimit":'
check metrics "$(curl -fs "http://$addr/metrics")" 'microserve_wal_appended_total'

# --- observability: histograms, request IDs, traces, pprof gating ---
echo "serve_smoke: checking histogram exposition"
metrics=$(curl -fs "http://$addr/metrics")
for family in \
  microserve_http_request_duration_seconds \
  microserve_mbsp_frame_duration_seconds \
  microserve_engine_stage_duration_seconds \
  microserve_stream_stage_duration_seconds \
  microserve_wal_op_duration_seconds \
  microserve_model_predicted_ctr; do
  check "hist-$family" "$metrics" "# TYPE $family histogram"
  check "hist-$family-bucket" "$metrics" "${family}_bucket{"
done
check build-info "$metrics" 'microserve_build_info{go_version='
check uptime "$metrics" 'microserve_uptime_seconds'
check drift-gauge "$metrics" 'microserve_model_ctr_drift_l1{'

# The score-route histogram must have counted real traffic: its +Inf
# cumulative bucket carries a non-zero count.
score_inf=$(printf '%s\n' "$metrics" \
  | sed -n 's/^microserve_http_request_duration_seconds_bucket{route="score",le="+Inf"} \([0-9]*\)$/\1/p')
if [ -z "$score_inf" ] || [ "$score_inf" -lt 1 ]; then
  echo "serve_smoke: score route histogram empty (+Inf bucket ${score_inf:-missing})" >&2
  exit 1
fi
echo "serve_smoke: score-route histogram ok ($score_inf requests)"

echo "serve_smoke: checking request-ID propagation"
pinned=$(curl -fs -D - -o /dev/null -H "X-Request-ID: smoke-req-7" "http://$addr/healthz" \
  | tr -d '\r' | sed -n 's/^X-Request-Id: //Ip')
[ "$pinned" = "smoke-req-7" ] || { echo "serve_smoke: client request ID not echoed (got '$pinned')" >&2; exit 1; }
minted=$(curl -fs -D - -o /dev/null "http://$addr/healthz" \
  | tr -d '\r' | sed -n 's/^X-Request-Id: //Ip')
case "$minted" in
  mb-*) echo "serve_smoke: request-id ok (echo + minted $minted)" ;;
  *) echo "serve_smoke: server minted no X-Request-ID (got '$minted')" >&2; exit 1 ;;
esac

check traces "$(curl -fs "http://$addr/debug/traces")" '"enabled":true'
check traces-captured "$(curl -fs "http://$addr/debug/traces")" '"proto":"http"'

# pprof must never ride the serving port: it only binds when
# -debug-addr names a separate listener (checked after the restart).
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/debug/pprof/")
[ "$code" = "404" ] || { echo "serve_smoke: pprof reachable on the serving port (got $code)" >&2; exit 1; }
echo "serve_smoke: observability ok"

# --- crash recovery: kill -9, restart on the same log, republish ---
# A last scrape pins how much the WAL holds; the 50ms flush interval
# has long since passed, so every appended record is durable.
appended=$(series microserve_wal_appended_total)
if [ -z "$appended" ] || [ "$appended" -lt 2000 ]; then
  echo "serve_smoke: WAL appended only ${appended:-0} records before the crash" >&2
  exit 1
fi
echo "serve_smoke: killing server with SIGKILL (wal holds $appended records)"
kill -9 "$srv_pid"
wait "$srv_pid" 2>/dev/null || true
srv_pid=""

echo "serve_smoke: restarting on the surviving WAL (pprof sidecar on)"
debug_addr="127.0.0.1:8390"
# interval=60s: no publish tick falls inside this script's lifetime, so
# the republish polled for below can only be the one the learner makes
# from the replayed log before it serves.
"$workdir/microserve" -addr "$addr" -load "pbm=$workdir/pbm.bin" \
  -online "model=sdbn+micro,interval=60s,min=100" \
  -wal "dir=$workdir/wal,fsync=interval=50ms" \
  -debug-addr "$debug_addr" >"$workdir/serve2.log" 2>&1 &
srv_pid=$!
up=""
for _ in $(seq 100); do
  if curl -fs "http://$addr/healthz" >/dev/null 2>&1; then up=1; break; fi
  sleep 0.1
done
if [ -z "$up" ]; then
  echo "serve_smoke: server never came back after kill -9" >&2
  cat "$workdir/serve2.log" >&2
  exit 1
fi

replayed=$(series microserve_wal_replayed_total)
if [ -z "$replayed" ] || [ "$replayed" -lt "$appended" ]; then
  echo "serve_smoke: replayed only ${replayed:-0} of $appended logged records" >&2
  curl -fs "http://$addr/healthz" >&2 || true
  cat "$workdir/serve2.log" >&2
  exit 1
fi
echo "serve_smoke: crash recovery ok ($replayed records replayed)"

# With -debug-addr set, pprof answers on the sidecar listener and the
# serving port still refuses it.
check pprof-sidecar "$(curl -fs "http://$debug_addr/debug/pprof/")" 'profiles'
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/debug/pprof/")
[ "$code" = "404" ] || { echo "serve_smoke: pprof leaked onto the serving port (got $code)" >&2; exit 1; }
echo "serve_smoke: pprof gating ok"

# The replayed feedback alone — no fresh traffic, no interval tick —
# must republish the online model in the restarted process.
published=""
for _ in $(seq 100); do
  models=$(curl -fs "http://$addr/v1/models")
  case "$models" in
    *'"name":"sdbn"'*'"source":"online"'*) published=1; break ;;
  esac
  sleep 0.1
done
if [ -z "$published" ]; then
  echo "serve_smoke: replayed log never republished the online model" >&2
  curl -fs "http://$addr/healthz" >&2 || true
  cat "$workdir/serve2.log" >&2
  exit 1
fi
echo "serve_smoke: post-crash republish ok"

echo "serve_smoke: shutting down"
kill -TERM "$srv_pid"
for _ in $(seq 100); do
  kill -0 "$srv_pid" 2>/dev/null || { srv_pid=""; break; }
  sleep 0.1
done
if [ -n "$srv_pid" ]; then
  echo "serve_smoke: server did not shut down gracefully" >&2
  exit 1
fi
grep -q "bye" "$workdir/serve2.log" || { echo "serve_smoke: graceful shutdown log missing" >&2; exit 1; }
echo "serve_smoke: PASS"
