package wal

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"testing"
	"time"
)

// TestCrashHelper is not a test: it is the child half of the kill -9
// e2e below, re-executing the test binary with the env gate set. It
// appends as fast as it can, reporting progress on stdout, until the
// parent kills it without warning.
func TestCrashHelper(t *testing.T) {
	dir := os.Getenv("WAL_CRASH_DIR")
	if os.Getenv("WAL_CRASH_HELPER") != "1" || dir == "" {
		t.Skip("helper process only")
	}
	w, err := Open(dir, Options{Sync: SyncBatched, SyncInterval: 5 * time.Millisecond})
	if err != nil {
		fmt.Println("open:", err)
		os.Exit(2)
	}
	deadline := time.Now().Add(30 * time.Second) // safety: die even if never killed
	for i := 0; time.Now().Before(deadline); i++ {
		seq, err := w.Append(sessRec(i))
		if err != nil {
			fmt.Println("append:", err)
			os.Exit(2)
		}
		if i%64 == 0 {
			// The parent parses these lines; durable lags appended by at
			// most one flush interval.
			fmt.Printf("appended %d durable %d\n", seq, w.durable.Load())
		}
	}
	os.Exit(2) // the parent was supposed to SIGKILL us
}

// TestCrashRecovery proves the bounded-loss guarantee end to end: a
// child process appends under the batched policy, the parent SIGKILLs
// it mid-stream — no flush, no close, no manifest rewrite — and a
// fresh Open of the same directory must recover at least every record
// the child reported durable, with nothing invented and nothing out of
// order.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestCrashHelper")
	cmd.Env = append(os.Environ(), "WAL_CRASH_HELPER=1", "WAL_CRASH_DIR="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Let it run long enough that fsyncs have demonstrably happened,
	// then kill it without ceremony.
	var lastAppended, lastDurable uint64
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		var a, d uint64
		if _, err := fmt.Sscanf(sc.Text(), "appended %d durable %d", &a, &d); err != nil {
			continue
		}
		lastAppended, lastDurable = a, d
		if d > 2000 {
			break
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	if lastDurable == 0 {
		t.Fatalf("child never reported durable progress (appended %d)", lastAppended)
	}

	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after kill -9: %v", err)
	}
	defer w.Close()
	var replayed, lastSeq uint64
	err = w.Replay(func(seq uint64, rec *Record) error {
		if seq <= lastSeq {
			t.Fatalf("replay order broke: %d after %d", seq, lastSeq)
		}
		if rec.Session == nil || len(rec.Session.Docs) != 2 {
			t.Fatalf("replayed garbage at seq %d: %+v", seq, rec)
		}
		lastSeq = seq
		replayed++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastSeq < lastDurable {
		t.Fatalf("recovered through seq %d, but the child saw %d durable before the kill", lastSeq, lastDurable)
	}
	if replayed != lastSeq {
		t.Fatalf("replayed %d records up to seq %d — a gap appeared", replayed, lastSeq)
	}
	t.Logf("child last reported appended=%v durable=%v; recovered %v records (torn bytes truncated %v)",
		lastAppended, lastDurable, replayed, w.Metrics().Read()["wal.truncated_bytes"])
}
