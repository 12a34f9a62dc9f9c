package stream

import (
	"testing"

	"repro/internal/engine"
)

// stageCount is how many samples one series of the learner's stage
// histogram holds, read through its list.
func stageCount(l *Learner, stage string) uint64 {
	for _, m := range l.Metrics() {
		if m.Name == "microserve_stream_stage_duration_seconds" && m.Labels == `stage="`+stage+`"` {
			return m.Hist.Count()
		}
	}
	return 0
}

func TestLearnerHists(t *testing.T) {
	l, err := New(engine.New(), Config{Models: []string{engine.NameMicro}})
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"fold_lag", "fold", "publish"} {
		if n := stageCount(l, stage); n != 0 {
			t.Fatalf("fresh learner has %d %s samples", n, stage)
		}
	}

	for i := 0; i < 5; i++ {
		if err := l.Ingest(Event{Snippet: &SnippetEvent{Lines: []string{"cheap flights"}, Impressions: 10, Clicks: 3}}); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	if _, err := l.Publish(); err != nil {
		t.Fatalf("publish: %v", err)
	}

	if n := stageCount(l, "fold_lag"); n != 5 {
		t.Fatalf("fold-lag samples = %d, want 5 (one per ingested event)", n)
	}
	if stageCount(l, "fold") == 0 {
		t.Fatal("fold histogram recorded nothing")
	}
	if n := stageCount(l, "publish"); n != 1 {
		t.Fatalf("publish samples = %d, want 1", n)
	}
}
