package wal

import "testing"

// opCount is how many samples one series of the log's operation
// histogram holds, read through its list.
func opCount(w *WAL, op string) uint64 {
	for _, m := range w.Metrics() {
		if m.Name == "microserve_wal_op_duration_seconds" && m.Labels == `op="`+op+`"` {
			return m.Hist.Count()
		}
	}
	return 0
}

func TestWALHists(t *testing.T) {
	w, err := Open(t.TempDir(), Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	for i := 0; i < 2*appendSampleEvery; i++ {
		if _, err := w.Append(Record{SnippetLines: []string{"cheap flights"}, Impressions: 5, Clicks: 1}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	// Sequences appendSampleEvery and 2*appendSampleEvery are the
	// sampled ones.
	if n := opCount(w, "append"); n != 2 {
		t.Fatalf("append samples = %d, want 2", n)
	}
	if opCount(w, "sync") == 0 {
		t.Fatal("sync histogram recorded nothing under SyncAlways")
	}
	if opCount(w, "flush") == 0 {
		t.Fatal("flush histogram recorded nothing")
	}
}
