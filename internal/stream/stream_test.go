package stream

import (
	"errors"
	"reflect"
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

// TestSinkRunSpills: a run fills the shard under the cursor and spills
// into the shards after it, in order; only what no shard has room for
// is dropped and counted, and the accepted events are the run's prefix.
func TestSinkRunSpills(t *testing.T) {
	s := NewSink(3, 10)
	run := func(n int) []Event {
		evs := make([]Event, n)
		for i := range evs {
			evs[i] = Event{Session: testSession(string(rune('a' + i)))}
		}
		return evs
	}
	if got := s.offerRun(run(4)); got != 4 { // the cursor's first shard is 1
		t.Fatalf("a run of 4 into an empty sink: %d accepted", got)
	}
	second := run(25)
	if got := s.offerRun(second); got != 25 || s.Dropped() != 0 {
		t.Fatalf("a run of 25 into 26 free slots: %d accepted, %d dropped", got, s.Dropped())
	}
	held := func(i int) []string {
		var qs []string
		for _, ev := range s.shards[i].buf {
			qs = append(qs, ev.Session.Query)
		}
		return qs
	}
	// Cursor shard 2 first, then 0, then the rest of shard 1's room.
	want := [][]string{
		{"k", "l", "m", "n", "o", "p", "q", "r", "s", "t"},
		{"a", "b", "c", "d", "u", "v", "w", "x", "y"},
		{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"},
	}
	for i := range want {
		if got := held(i); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("shard %d holds %v, want %v", i, got, want[i])
		}
	}
	third := run(3)
	if got := s.offerRun(third); got != 1 || s.Dropped() != 2 || s.Queued() != 30 {
		t.Fatalf("a run of 3 into 1 free slot: %d accepted, %d dropped, %d queued", got, s.Dropped(), s.Queued())
	}
	if last := s.shards[1].buf[9]; last.Session != third[0].Session {
		t.Fatalf("the free slot took %q, want the run's first event", last.Session.Query)
	}
	if s.offerRun(nil) != 0 || s.Dropped() != 2 {
		t.Fatal("an empty run was counted")
	}
}

// TestSinkRunFillToken: the fill token is posted by the run that takes a
// shard across its mark, whether or not the run lands on it, and by no
// run that starts past it.
func TestSinkRunFillToken(t *testing.T) {
	s := NewSink(1, 10) // marks the shard full at 5
	tokens := func() int {
		select {
		case <-s.filled:
			return 1
		default:
			return 0
		}
	}
	evs := make([]Event, 10)
	for i, n := range []struct{ run, tokens int }{{3, 0}, {4, 1}, {2, 0}, {1, 0}} {
		if got := s.offerRun(evs[:n.run]); got != n.run {
			t.Fatalf("run %d: %d of %d accepted", i, got, n.run)
		}
		if got := tokens(); got != n.tokens {
			t.Fatalf("run %d of %d events (shard at %d after it): %d fill tokens, want %d", i, n.run, len(s.shards[0].buf), got, n.tokens)
		}
	}
	s.DrainShard(0, func(*Event) {})
	if s.offerRun(evs[:10]) != 10 || tokens() != 1 {
		t.Fatal("a run from empty to the bound did not ask for a fold")
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
