package stream

import (
	"bytes"
	"errors"
	"log"
	"strings"
	"testing"

	"repro/internal/clickmodel"
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
// (failing) WAL must not take ingest down with it, one event or a run
// at a time, and the failure is logged once, on its edge.
func TestLearnerWALAppendFailure(t *testing.T) {
	w, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	l := mustLearner(t, Config{Models: []string{"pbm"}, WAL: w, Logger: log.New(&logged, "", 0)})
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
	run := []Event{{Session: &s[0]}, {Session: &s[1]}, {Session: &s[2]}}
	if n, _ := l.IngestRun(run, nil); n != (Counts{Accepted: 3}) {
		t.Fatalf("a run with a dead WAL: %+v", n)
	}
	if c := w.Metrics().Read(); c["wal.append_errors"] != 8 {
		t.Fatalf("AppendErrors = %v, want 8", c["wal.append_errors"])
	}
	if n := strings.Count(logged.String(), "no longer crash-safe"); n != 1 {
		t.Fatalf("the failure was logged %d times, want once on its edge:\n%s", n, logged.String())
	}
}

// TestIngestRunLogsWhatItAccepts: a run's events are validated and
// counted one by one, the accepted ones come back as a prefix of the
// caller's slice, in order, and the log holds exactly them, in order;
// the same events ingested one at a time count the same.
func TestIngestRunLogsWhatItAccepts(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const shards, queueCap = 2, 8
	l := mustLearner(t, Config{Models: []string{"sdbn", "micro"}, Shards: shards, QueueCap: queueCap, WAL: w})
	each := mustLearner(t, Config{Models: []string{"sdbn", "micro"}, Shards: shards, QueueCap: queueCap})

	sessions := genSessions(14, 5)
	bad := clickmodel.Session{Query: "q", Docs: []string{"a"}, Clicks: []bool{true, false}}
	snip := SnippetEvent{Lines: []string{"cheap flights"}, Impressions: 10, Clicks: 2}
	var evs []Event
	for i := range sessions {
		evs = append(evs, Event{Session: &sessions[i]})
		if i%4 == 1 {
			evs = append(evs, Event{}, Event{Session: &bad}, Event{Snippet: &snip})
		}
	}
	want := ingestEachCounts(each, evs)
	var valid []Event
	for _, ev := range evs {
		if ev.validate() == nil {
			valid = append(valid, ev)
		}
	}

	run := append([]Event(nil), evs...)
	got, recs := l.IngestRun(run, nil)
	if got != want || got.Accepted != shards*queueCap || got.Dropped == 0 || got.Invalid == 0 {
		t.Fatalf("the run counts %+v; one event at a time counts %+v (want the sink filled, drops and invalids)", got, want)
	}
	if cap(recs) < got.Accepted {
		t.Fatalf("the records scratch came back with room for %d of %d records", cap(recs), got.Accepted)
	}
	for i := range valid[:got.Accepted] {
		if run[i].Session != valid[i].Session || run[i].Snippet != valid[i].Snippet || run[i].enqueuedNS != run[0].enqueuedNS {
			t.Fatalf("accepted event %d is %+v, want %+v stamped like the first", i, run[i], valid[i])
		}
	}
	c := l.Metrics().Read()
	if c["stream.accepted"] != float64(got.Accepted) || c["stream.dropped"] != float64(got.Dropped) || c["stream.invalid"] != float64(got.Invalid) {
		t.Fatalf("counters %+v for a run counted %+v", c, got)
	}

	l.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var logged []wal.Record
	if err := r.Replay(func(_ uint64, rec *wal.Record) error { logged = append(logged, *rec); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(logged) != got.Accepted {
		t.Fatalf("the log holds %d records for %d accepted events", len(logged), got.Accepted)
	}
	for i, rec := range logged {
		ev := &valid[i]
		if (rec.Session == nil) != (ev.Session == nil) || rec.Session != nil && rec.Session.Query != ev.Session.Query ||
			(len(rec.SnippetLines) > 0) != (ev.Snippet != nil) {
			t.Fatalf("logged record %d is %+v for the event %+v", i, rec, ev)
		}
	}
}

// ingestEachCounts ingests evs one at a time and counts the outcomes.
func ingestEachCounts(l *Learner, evs []Event) (n Counts) {
	for _, ev := range evs {
		switch err := l.Ingest(ev); {
		case err == nil:
			n.Accepted++
		case errors.Is(err, ErrDropped):
			n.Dropped++
		default:
			n.Invalid++
		}
	}
	return n
}
