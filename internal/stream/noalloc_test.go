package stream

import (
	"testing"
	"time"

	"repro/internal/wal"
)

// TestOfferNoalloc backs the //mb:noalloc annotation on Sink.OfferRun:
// enqueueing into a shard with spare capacity is a mutex, an append
// into preallocated backing and two counters — no allocation. The
// drop path (full shard) is measured too; it is even cheaper.
func TestOfferNoalloc(t *testing.T) {
	s := NewSink(1, 2048)
	ev := Event{Session: testSession("q")}

	allocs := testing.AllocsPerRun(500, func() {
		if !offer(s, ev) {
			t.Fatal("Offer dropped with spare capacity")
		}
	})
	if allocs != 0 {
		t.Fatalf("Offer allocates %v/op, want 0", allocs)
	}

	for offer(s, ev) {
	} // fill the shard
	allocs = testing.AllocsPerRun(100, func() {
		if offer(s, ev) {
			t.Fatal("Offer accepted into a full shard")
		}
	})
	if allocs != 0 {
		t.Fatalf("Offer drop path allocates %v/op, want 0", allocs)
	}
}

// TestIngestRunNoalloc backs the //mb:noalloc annotations on
// Sink.OfferRun, Learner.IngestRun and enqueue: once the shards' buffers
// and the caller's record scratch have grown, a run of valid, invalid
// and (past the bound) dropped events into a learner with a batched WAL
// allocates nothing.
func TestIngestRunNoalloc(t *testing.T) {
	w, err := wal.Open(t.TempDir(), wal.Options{SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	l := mustLearner(t, Config{Models: []string{"sdbn"}, Shards: 2, QueueCap: 1 << 12, WAL: w})
	sessions := genSessions(64, 7)
	evs := make([]Event, 0, len(sessions)+1)
	fill := func() {
		evs = evs[:0]
		for i := range sessions {
			evs = append(evs, Event{Session: &sessions[i]})
		}
		evs = append(evs, Event{})
	}
	var recs []wal.Record
	run := func() {
		fill()
		var n Counts
		if n, recs = l.IngestRun(evs, recs); n.Invalid != 1 || n.Accepted+n.Dropped != len(sessions) {
			t.Fatalf("run counted %+v", n)
		}
	}
	fillShards := func() {
		for i := 0; i < 2*(1<<12)/len(sessions)+2; i++ {
			run() // both shards to the bound, then drops
		}
	}
	drain := func() {
		for i := 0; i < l.sink.Shards(); i++ {
			l.sink.DrainShard(i, func(*Event) {})
		}
	}
	fillShards()
	drain()
	fillShards() // the second swap buffer grows
	drain()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("IngestRun into warm shards allocates %v/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := l.Ingest(Event{Session: &sessions[0]}); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Ingest, a run of one, allocates %v/op, want 0", allocs)
	}
	fillShards()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("IngestRun at the bound allocates %v/op, want 0", allocs)
	}
}
