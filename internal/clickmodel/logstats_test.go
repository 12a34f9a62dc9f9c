package clickmodel

import (
	"fmt"
	"slices"
	"testing"
)

// TestLogStatsMatchesAdd holds the two fillers of a Stats to each other
// array by array. The parity suites compare fitted parameters, which
// cannot see an array a model does not read — Cascade never reads
// clickAt or lastAt, DCM never reads satNum — so a filler could be wrong
// there and every fit still right.
func TestLogStatsMatchesAdd(t *testing.T) {
	sess := func(q string, docs []string, clicked ...int) Session {
		s := Session{Query: q, Docs: docs, Clicks: make([]bool, len(docs))}
		for _, i := range clicked {
			s.Clicks[i] = true
		}
		return s
	}
	abc := []string{"a", "b", "c"}
	long := make([]string, 70)
	every := make([]int, len(long))
	for i := range long {
		long[i], every[i] = fmt.Sprintf("d%d", i%50), i // the list repeats its first twenty documents
	}
	type namedLog struct {
		name string
		log  []Session
	}
	logs := []namedLog{
		{"no click", []Session{sess("q", abc)}},
		{"click first only", []Session{sess("q", abc, 0)}},
		{"click last only", []Session{sess("q", abc, 2)}},
		{"every position clicked", []Session{sess("q", abc, 0, 1, 2)}},
		{"one-document list", []Session{sess("q", abc[:1]), sess("q", abc[:1], 0)}},
		{"70-document list", []Session{sess("q", long, 3, 41, 69), sess("q", long), sess("q", long, every...)}},
		{"same doc twice", []Session{sess("q", []string{"a", "b", "a"}, 2), sess("q", []string{"a", "a"}, 0)}},
		// (q, c) is never at or above a last click: the log interns the
		// pair, Add never meets it, and neither may count anything for it.
		{"pair only below a last click", []Session{sess("q", abc, 1), sess("q", abc, 0)}},
		{"queries share documents", []Session{sess("q1", abc, 1), sess("q2", abc, 0, 2), sess("q1", abc)}},
	}
	for _, seed := range []int64{101, 404, 20190408} {
		logs = append(logs, namedLog{fmt.Sprintf("synthParityLog(%d)", seed), synthParityLog(seed, 1200)})
	}
	for _, l := range logs {
		log := l.log
		t.Run(l.name, func(t *testing.T) {
			c, err := Compile(log)
			if err != nil {
				t.Fatal(err)
			}
			fs, dense := logStats(c)
			defer putScratch(fs)
			online := NewStats()
			if err := addAll(online, log); err != nil {
				t.Fatal(err)
			}

			perPair := func(st *Stats, p int) [5]float64 {
				return [5]float64{st.clicks[p], st.examLast[p], st.satNum[p], st.clickFirst[p], st.examFirst[p]}
			}
			met := 0
			for p, k := range dense.tab.pairs {
				var want [5]float64
				if id, ok := online.tab.find(k.q, k.d); ok {
					want = perPair(online, int(id))
					met++
				}
				if got := perPair(&dense, p); got != want {
					t.Errorf("pair %v: logStats counted %v, Add %v (clicks, examLast, satNum, clickFirst, examFirst)", k, got, want)
				}
			}
			if met != online.NumPairs() {
				t.Errorf("Add interned %d pairs, %d of them are the log's", online.NumPairs(), met)
			}
			if !slices.Equal(dense.clickAt, online.clickAt) || !slices.Equal(dense.lastAt, online.lastAt) {
				t.Errorf("per position: logStats clickAt %v lastAt %v, Add clickAt %v lastAt %v",
					dense.clickAt, dense.lastAt, online.clickAt, online.lastAt)
			}
			if dense.Weight() != online.Weight() {
				t.Errorf("logStats holds weight %v, Add %v", dense.Weight(), online.Weight())
			}
		})
	}
}
