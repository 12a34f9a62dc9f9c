package stream

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/clickmodel"
)

func testSession(q string) *clickmodel.Session {
	return &clickmodel.Session{Query: q, Docs: []string{"a", "b"}, Clicks: []bool{true, false}}
}

func TestSinkOfferAndDrop(t *testing.T) {
	s := NewSink(2, 4)
	for i := 0; i < 8; i++ {
		if !s.Offer(Event{Session: testSession("q")}) {
			t.Fatalf("offer %d rejected below capacity", i)
		}
	}
	if s.Offer(Event{Session: testSession("q")}) {
		t.Fatal("offer accepted into a full sink")
	}
	if s.Queued() != 8 || s.Dropped() != 1 {
		t.Fatalf("queued %d dropped %d, want 8/1", s.Queued(), s.Dropped())
	}

	drained := 0
	for i := 0; i < s.Shards(); i++ {
		drained += s.DrainShard(i, func(*Event) {})
	}
	if drained != 8 {
		t.Fatalf("drained %d, want 8", drained)
	}
	// Capacity is back after the drain.
	if !s.Offer(Event{Session: testSession("q")}) {
		t.Fatal("offer rejected after drain")
	}
}

func TestSinkDefaults(t *testing.T) {
	s := NewSink(0, 0)
	if s.Shards() != 1 {
		t.Fatalf("shards = %d", s.Shards())
	}
	if !s.Offer(Event{}) {
		t.Fatal("default-capacity sink rejected first event")
	}
}

// TestSinkConcurrent hammers Offer from many goroutines while a
// drainer empties shards; every event must be accounted for exactly
// once as drained or dropped (run with -race).
func TestSinkConcurrent(t *testing.T) {
	s := NewSink(4, 64)
	const producers, perProducer = 8, 500

	stop := make(chan struct{})
	drainerDone := make(chan int, 1)
	go func() {
		drained := 0
		for {
			select {
			case <-stop:
				drainerDone <- drained
				return
			default:
			}
			for i := 0; i < s.Shards(); i++ {
				drained += s.DrainShard(i, func(*Event) {})
			}
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := Event{Session: testSession("q")}
			for i := 0; i < perProducer; i++ {
				s.Offer(ev)
			}
		}()
	}
	wg.Wait()
	close(stop)
	// Only one drainer may work a shard at a time: wait for the
	// background drainer to exit before the final sweep.
	drained := <-drainerDone
	for i := 0; i < s.Shards(); i++ {
		drained += s.DrainShard(i, func(*Event) {})
	}

	total := uint64(producers * perProducer)
	if s.Queued()+s.Dropped() != total {
		t.Fatalf("queued %d + dropped %d != offered %d", s.Queued(), s.Dropped(), total)
	}
	if uint64(drained) != s.Queued() {
		t.Fatalf("drained %d != queued %d", drained, s.Queued())
	}
}

func TestSnippetEventValidate(t *testing.T) {
	cases := []struct {
		ev SnippetEvent
		ok bool
	}{
		{SnippetEvent{Lines: []string{"x"}, Impressions: 10, Clicks: 3}, true},
		{SnippetEvent{Lines: nil, Impressions: 10, Clicks: 3}, false},
		{SnippetEvent{Lines: []string{"x"}, Impressions: 0, Clicks: 0}, false},
		{SnippetEvent{Lines: []string{"x"}, Impressions: 5, Clicks: 6}, false},
		{SnippetEvent{Lines: []string{"x"}, Impressions: 5, Clicks: -1}, false},
	}
	for i, c := range cases {
		if err := c.ev.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d: Validate() = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestIngestValidation(t *testing.T) {
	l := mustLearner(t, Config{Models: []string{"sdbn"}, Shards: 1, QueueCap: 1})
	if err := l.Ingest(Event{}); err == nil {
		t.Fatal("empty event accepted")
	}
	bad := &clickmodel.Session{Query: "q", Docs: []string{"a"}, Clicks: []bool{true, false}}
	if err := l.Ingest(Event{Session: bad}); err == nil {
		t.Fatal("invalid session accepted")
	}
	if got := l.Metrics().Read()["stream.invalid"]; got != 2 {
		t.Fatalf("invalid counter = %v, want 2", got)
	}
	// Saturation surfaces as ErrDropped.
	if err := l.Ingest(Event{Session: testSession("q")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Ingest(Event{Session: testSession("q")}); !errors.Is(err, ErrDropped) {
		t.Fatalf("saturated ingest returned %v, want ErrDropped", err)
	}
	c := l.Metrics().Read()
	if c["stream.accepted"] != 1 || c["stream.dropped"] != 1 {
		t.Fatalf("counters after saturation: %+v", c)
	}
}
