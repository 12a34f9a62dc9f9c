package stream

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/wal"
)

// TestLearnerWALReplay is the crash-safety contract at the learner
// level: everything a first process ingested comes back in a second
// process's accumulators via the log, counts as folded, and is enough
// on its own to publish a model — no fresh traffic required.
func TestLearnerWALReplay(t *testing.T) {
	dir := t.TempDir()
	sessions := genSessions(400, 23)

	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	l, err := New(eng, Config{Models: []string{"pbm", "micro"}, Shards: 4, QueueCap: 1 << 12, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sessions {
		if err := l.Ingest(Event{Session: &sessions[i]}); err != nil {
			t.Fatal(err)
		}
	}
	snip := SnippetEvent{Lines: []string{"cheap flights", "book today"}, Impressions: 80, Clicks: 12}
	for i := 0; i < 3; i++ {
		if err := l.Ingest(Event{Snippet: &snip}); err != nil {
			t.Fatal(err)
		}
	}
	// Malformed events must not reach the log.
	if err := l.Ingest(Event{}); err == nil {
		t.Fatal("empty event accepted")
	}
	l.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if c := w.Metrics().Read(); c["wal.appended"] != float64(len(sessions)+3) {
		t.Fatalf("WAL Appended = %v, want %v", c["wal.appended"], len(sessions)+3)
	}

	// "Restart": a fresh WAL, engine and learner over the same
	// directory. New replays before returning.
	w2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	eng2 := engine.New()
	l2, err := New(eng2, Config{Models: []string{"pbm", "micro"}, Shards: 4, WAL: w2})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()

	c := l2.Metrics().Read()
	if c["stream.replayed"] != float64(len(sessions)+3) {
		t.Fatalf("Replayed = %v, want %v", c["stream.replayed"], len(sessions)+3)
	}
	if c["stream.folded_sessions"] != float64(len(sessions)) || c["stream.folded_snippets"] != 3 {
		t.Fatalf("folded %v sessions / %v snippets, want %v / 3", c["stream.folded_sessions"], c["stream.folded_snippets"], len(sessions))
	}
	if wc := w2.Metrics().Read(); wc["wal.replayed"] != float64(len(sessions)+3) || wc["wal.corrupt_skipped"] != 0 {
		t.Fatalf("WAL replay counters: %+v", wc)
	}

	// The recovered statistics alone publish working models.
	infos, err := l2.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("published %d models from replayed state, want pbm + micro", len(infos))
	}
	if got := eng2.ModelCount(); got != 2 {
		t.Fatalf("engine has %d models after replay publish, want 2", got)
	}
	if c := l2.Metrics().Read(); c["stream.pairs"] == 0 || c["stream.micro_terms"] == 0 {
		t.Fatalf("replayed state is empty: %+v", c)
	}
}

// TestLearnerWALAppendFailure pins the degradation mode: a closed
// (failing) WAL must not take ingest down with it.
func TestLearnerWALAppendFailure(t *testing.T) {
	w, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := mustLearner(t, Config{Models: []string{"pbm"}, WAL: w})
	defer l.Close()
	if err := w.Close(); err != nil { // every append now fails
		t.Fatal(err)
	}
	s := genSessions(5, 3)
	for i := range s {
		if err := l.Ingest(Event{Session: &s[i]}); err != nil {
			t.Fatalf("ingest with a dead WAL: %v", err)
		}
	}
	if c := w.Metrics().Read(); c["wal.append_errors"] != 5 {
		t.Fatalf("AppendErrors = %v, want 5", c["wal.append_errors"])
	}
}
