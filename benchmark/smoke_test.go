package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildMicroserve compiles the real server from the parent module into
// a temporary directory.
func buildMicroserve(t *testing.T) (root, bin string) {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin = filepath.Join(t.TempDir(), "microserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/microserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building microserve: %v\n%s", err, out)
	}
	return root, bin
}

// TestSmokeEndToEnd drives the -smoke shape (2.5 s of phases, one
// set-up) through the real binary for a read-only workload and for the
// online one, untraced and traced: every answer must check, every
// declared metric must be present, and the trace file must hold both
// span families.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots microserve")
	}
	root, bin := buildMicroserve(t)
	outDir := t.TempDir()
	for _, tc := range []struct {
		workload string
		trace    bool
	}{
		{"score_mbsp", false},
		{"score_json", true},
		{"optimize_mbsp", true},
		{"mixed_online", true},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			o := &runOpts{root: root, bin: bin, outDir: outDir, spec: findWorkload(tc.workload), seed: DefaultSeed, seconds: 2.5, trace: tc.trace, oneSetup: true}
			res, err := runWorkload(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			var report bytes.Buffer
			printResult(&report, res)
			if res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("%d of %d ops failed: %v\n%s", res.Failed, res.Attempted, res.Failures, report.String())
			}
			for _, name := range endToEndOrder {
				if m, ok := res.EndToEnd[name]; !ok || m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v", name, m)
				}
			}
			if len(res.StreamHash) != 64 || res.Host.NumCPU == 0 || len(res.ServerFlags) == 0 {
				t.Errorf("result lacks its provenance: hash %q host %+v flags %v", res.StreamHash, res.Host, res.ServerFlags)
			}
			entries, _ := os.ReadDir(outDir)
			for _, e := range entries {
				if e.IsDir() {
					t.Errorf("run directory %s was left behind", e.Name())
				}
			}
			if !tc.trace {
				return
			}
			for name := range perLayerUnits {
				if _, ok := res.PerLayer[name]; !ok {
					t.Errorf("per-layer metric %s missing", name)
				}
			}
			mustBePositive := map[string][]string{
				"score_json":    {"server.json_handle_self_ns_per_op", "server.json_decode_ns_per_op", "textproc.tokenize_ns_per_op", "proc.mallocs_per_op", "server.http_route_us"},
				"optimize_mbsp": {"textproc.candset_distinct_ratio", "engine.topk_ns_per_call", "binproto.frame_service_us", "engine.stage_batch_us", "binproto.client_encode_ns_per_op", "binproto.serve_self_ns_per_op"},
				"mixed_online":  {"server.feedback_handle_us_per_event", "stream.ingest_ns_per_event", "wal.append_ns_per_event", "wal.replay_events_per_s", "wal.bytes_per_event", "clickmodel.clickprobs_ns_per_op"},
			}
			for _, name := range mustBePositive[tc.workload] {
				if res.PerLayer[name].Value <= 0 {
					t.Errorf("%s = %v on %s", name, res.PerLayer[name].Value, tc.workload)
				}
			}
			if res.Budget == nil || len(res.Budget.Lines) == 0 {
				t.Fatal("traced run produced no budget")
			}
			b, err := os.ReadFile(res.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(b, &tf); err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, s := range tf.Spans {
				seen[s.Name] = true
				if s.Name == "client.request" && s.Children != 3 {
					t.Fatalf("client.request %s has %d children, want encode, wire, decode", s.Req, s.Children)
				}
			}
			if !seen["client.wire"] || tf.ReplayRequests != replaySample {
				t.Errorf("trace holds client.wire=%v and %d replay requests", seen["client.wire"], tf.ReplayRequests)
			}
		})
	}
}
