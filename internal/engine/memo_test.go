package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/textproc"
)

// memoStrand is one scoring strand of an engine with a scratch of its
// own, memo attached.
type memoStrand struct {
	e  *Engine
	sc *scratch
}

func newMemoStrand(e *Engine) *memoStrand {
	return &memoStrand{e: e, sc: &scratch{memo: e.memo}}
}

// score runs one request the way a batch strand does and holds the
// answer to the unmemoised kernel of the version that gave it.
func (st *memoStrand) score(t *testing.T, req Request) Response {
	t.Helper()
	name, _, mv, err := st.e.resolve(req.Model)
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := st.e.scoreResolved(context.Background(), &req, name, &mv, st.sc, &resp); err != nil {
		t.Fatal(err)
	}
	var sc textproc.Scratch
	ctr, score := mv.scorer.(*MicroScorer).c.ScoreSnippet(req.Lines, req.maxN(), &sc)
	if math.Float64bits(resp.CTR) != math.Float64bits(ctr) || math.Float64bits(resp.Score) != math.Float64bits(score) {
		t.Fatalf("lines %.40q max_n %d: memoised strand answered (%v, %v), the kernel (%v, %v)",
			req.Lines, req.MaxN, resp.CTR, resp.Score, ctr, score)
	}
	return resp
}

// memoCounts is what the memo did, as its list on the engine's
// Metrics reports it.
type memoCounts struct{ Lookups, Hits, Stores, Overwritten uint64 }

func readMemo(e *Engine) memoCounts {
	r := e.Metrics().Read()
	return memoCounts{uint64(r["memo.lookups"]), uint64(r["memo.hits"]), uint64(r["memo.stores"]), uint64(r["memo.overwritten"])}
}

func keyBytes(lines []string) (n int) {
	for _, l := range lines {
		n += len(l)
	}
	return n
}

func TestMemoShardCount(t *testing.T) {
	for _, c := range []struct{ procs, want int }{{1, 16}, {2, 16}, {4, 16}, {5, 32}, {8, 32}, {9, 64}, {64, 256}, {65, 256}, {4096, 256}} {
		if got := memoShardCount(c.procs); got != c.want {
			t.Errorf("memoShardCount(%d) = %d, want %d", c.procs, got, c.want)
		}
	}
	if max := memoRecLen(memoMaxLines, memoMaxKey); max > memoRingBytes/memoMaxShards {
		t.Errorf("the largest record (%d bytes) does not fit the smallest ring (%d)", max, memoRingBytes/memoMaxShards)
	}
}

// TestMemoBounds holds the memo's limits at their edges. Each row is a
// request sequence scored on one strand of a fresh engine — every answer
// is checked against the unmemoised kernel by memoStrand.score — and the
// counts the sequence must leave.
func TestMemoBounds(t *testing.T) {
	thrice := func(reqs ...Request) []Request {
		var out []Request
		for i := 0; i < 3; i++ {
			out = append(out, reqs...)
		}
		return out
	}
	words := strings.Repeat("find cheap flights to rome ", 200)
	manyLines := func(n int) []string {
		lines := make([]string, n)
		for i := range lines {
			lines[i] = "x"
		}
		return lines
	}
	// A line spelling the record of another snippet with other numbers:
	// what an attacker who knows the layout would send.
	victim := []string{"Acme Air"}
	forged := make([]byte, memoRecLen(1, len(victim[0])))
	binary.LittleEndian.PutUint64(forged, memoHash(victim, 2, 1))
	binary.LittleEndian.PutUint64(forged[8:], 1)
	binary.LittleEndian.PutUint64(forged[16:], math.Float64bits(0.999))
	binary.LittleEndian.PutUint64(forged[24:], math.Float64bits(-0.001))
	binary.LittleEndian.PutUint16(forged[32:], uint16(len(victim[0])))
	forged[34], forged[35] = 1, 2
	binary.LittleEndian.PutUint16(forged[36:], uint16(len(victim[0])))
	copy(forged[38:], victim[0])

	for _, row := range []struct {
		name string
		reqs []Request
		want memoCounts // Lookups, Hits, Stores
	}{
		{"a 4096-byte key is stored", thrice(Request{Lines: []string{words[:4000], words[:96]}}), memoCounts{Lookups: 3, Hits: 1, Stores: 1}},
		{"a 4097-byte key is a miss every time", thrice(Request{Lines: []string{words[:4000], words[:97]}}), memoCounts{Lookups: 3}},
		{"255 lines are stored", thrice(Request{Lines: manyLines(255)}), memoCounts{Lookups: 3, Hits: 1, Stores: 1}},
		{"256 lines are a miss every time", thrice(Request{Lines: manyLines(256)}), memoCounts{Lookups: 3}},
		{"max_n -1, 0 and 2 are one entry",
			[]Request{{Lines: testLines, MaxN: -1}, {Lines: testLines}, {Lines: testLines, MaxN: 2}},
			memoCounts{Lookups: 3, Hits: 1, Stores: 1}},
		{"max_n 3, 4 and 200 are one entry",
			[]Request{{Lines: testLines, MaxN: 3}, {Lines: testLines, MaxN: 4}, {Lines: testLines, MaxN: 200}},
			memoCounts{Lookups: 3, Hits: 1, Stores: 1}},
		{"orders 1, 2 and 3 are three",
			thrice(Request{Lines: testLines, MaxN: 1}, Request{Lines: testLines, MaxN: 2}, Request{Lines: testLines, MaxN: 3}),
			memoCounts{Lookups: 9, Hits: 3, Stores: 3}},
		{"an empty line is a line", thrice(Request{Lines: []string{"Find cheap", "", "flights"}}, Request{Lines: []string{"Find cheap", "flights"}}),
			memoCounts{Lookups: 6, Hits: 2, Stores: 2}},
		{"where a line ends is part of the key", thrice(Request{Lines: []string{"find cheap", "flights"}}, Request{Lines: []string{"find", "cheap flights"}}),
			memoCounts{Lookups: 6, Hits: 2, Stores: 2}},
		{"an empty-string-only snippet", thrice(Request{Lines: []string{""}}), memoCounts{Lookups: 3, Hits: 1, Stores: 1}},
		{"a line that spells a record", thrice(Request{Lines: []string{string(forged)}}, Request{Lines: victim}),
			memoCounts{Lookups: 6, Hits: 2, Stores: 2}},
	} {
		t.Run(row.name, func(t *testing.T) {
			e := New()
			e.UseMicro(testMicroModel())
			st := newMemoStrand(e)
			for _, req := range row.reqs {
				st.score(t, req)
			}
			got := readMemo(e)
			if got.Lookups != row.want.Lookups || got.Hits != row.want.Hits || got.Stores != row.want.Stores {
				t.Errorf("after %d requests: %+v, want lookups %d hits %d stores %d",
					len(row.reqs), got, row.want.Lookups, row.want.Hits, row.want.Stores)
			}
		})
	}

	// The kernel's guard, through the memo: no term, CTR 0, all three times.
	e := New()
	e.UseMicro(testMicroModel())
	st := newMemoStrand(e)
	for i := 0; i < 3; i++ {
		if resp := st.score(t, Request{Lines: []string{""}}); resp.CTR != 0 {
			t.Errorf("empty snippet, sight %d: CTR %v, want 0", i+1, resp.CTR)
		}
	}
}

// shardPut walks one key through a shard the way scoreHashed does on a
// snippet's first two sights: a miss that leaves the marker, a miss that
// finds it, the store.
func shardPut(t *testing.T, s *memoShard, h, ident uint64, lines []string, ctr, score float64) {
	t.Helper()
	n := keyBytes(lines)
	if _, _, hit, admit := s.lookup(h, ident, 2, lines, n); hit || admit {
		t.Fatalf("first sight of %#x: hit %v admit %v", h, hit, admit)
	}
	if _, _, hit, admit := s.lookup(h, ident, 2, lines, n); hit || !admit {
		t.Fatalf("second sight of %#x: hit %v admit %v", h, hit, admit)
	}
	s.store(h, ident, 2, lines, n, ctr, score)
}

// TestMemoRingWrap fills one shard's ring to its end and past it: a
// record never straddles the end, the records the newcomers overwrote
// are misses (their index entries fail the position test, and become
// markers), and every other record still answers with its own numbers.
// The overwritten counter counts the dead records that never answered:
// a record's first hit sets its used bit, and a hit on a record already
// used only reads its bucket.
func TestMemoRingWrap(t *testing.T) {
	const ringLen = memoRingBytes / memoMaxShards // 8 KB, 16 buckets
	for _, row := range []struct {
		name      string
		lineBytes int // one line per record
		records   int
		used      int    // the oldest records, hit as soon as they are stored
		wantW     uint64 // virtual write position afterwards
		wantDead  int    // of the oldest records
	}{
		// 36 + 2 + 90 = 128 bytes: 64 records fill the ring exactly and
		// the 65th starts at offset 0 with nothing skipped.
		{"filled exactly to its end", 90, 65, 0, ringLen + 65*128, 1},
		// 36 + 2 + 98 = 136 bytes: 60 fit, 32 bytes are left, the 61st
		// skips them and lies where record 0 lay.
		{"a tail too short for the record", 98, 61, 0, 2*ringLen + 136, 1},
		// Nearly twice round (120 records keep every bucket within its
		// eight ways, so an index entry is only ever lost to the ring).
		{"two laps", 90, 120, 0, ringLen + 120*128, 56},
		{"two laps, the oldest eight used", 90, 120, 8, ringLen + 120*128, 56},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := memoShard{size: ringLen}
			key := func(i int) (uint64, []string) {
				line := fmt.Sprintf("%0*d", row.lineBytes, i)
				// One shard (the caller's), a bucket and a tag per record.
				return uint64(i)<<16 | uint64(i), []string{line}
			}
			for i := 0; i < row.records; i++ {
				h, lines := key(i)
				shardPut(t, &s, h, 7, lines, float64(i), -float64(i))
				if i >= row.used {
					continue
				}
				slots, _ := s.bucket(h)
				stored := slices.Clone(slots)
				if _, _, hit, _ := s.lookup(h, 7, 2, lines, row.lineBytes); !hit {
					t.Fatalf("record %d missed right after its store", i)
				}
				for j := range slots {
					want := stored[j]
					if want>>memoPosShift > memoMarker && want&0xffff == h&0xffff {
						want |= memoUsedBit
					}
					if slots[j] != want {
						t.Fatalf("record %d's first hit left way %d at %#x, want %#x", i, j, slots[j], want)
					}
				}
				// The hits below must not write the bucket: a reader that
				// takes no lock watches it meanwhile (-race reports a write).
				used := slices.Clone(slots)
				watched := make(chan bool)
				go func() {
					same := true
					for k := 0; k < 100; k++ {
						same = same && slices.Equal(slots, used)
					}
					watched <- same
				}()
				for k := 0; k < 100; k++ {
					if _, _, hit, _ := s.lookup(h, 7, 2, lines, row.lineBytes); !hit {
						t.Fatalf("record %d missed on hit %d", i, k+2)
					}
				}
				if !<-watched || !slices.Equal(slots, used) {
					t.Fatalf("hits on used record %d rewrote its bucket: %#x, was %#x", i, slots, used)
				}
			}
			if s.w != row.wantW {
				t.Errorf("write position %d, want %d", s.w, row.wantW)
			}
			for i := 0; i < row.records; i++ {
				h, lines := key(i)
				ctr, score, hit, admit := s.lookup(h, 7, 2, lines, row.lineBytes)
				if dead := i < row.wantDead; dead != !hit || dead != admit {
					t.Errorf("record %d: hit %v admit %v, want dead %v", i, hit, admit, dead)
				}
				if hit && (ctr != float64(i) || score != -float64(i)) {
					t.Errorf("record %d answered (%v, %v)", i, ctr, score)
				}
			}
			if got, want := int(s.overwritten), row.wantDead-min(row.used, row.wantDead); got != want {
				t.Errorf("overwritten %d, want %d", got, want)
			}
		})
	}
}

// TestMemoStartsOver: a shard whose write position is about to outgrow
// an index slot forgets everything and counts from one ring length
// again, so a position never aliases an older one.
func TestMemoStartsOver(t *testing.T) {
	const ringLen = memoRingBytes / memoMaxShards
	s := memoShard{size: ringLen}
	shardPut(t, &s, 1, 7, []string{"old"}, 1, 1)
	s.w = memoPosLimit
	shardPut(t, &s, 2, 7, []string{"new"}, 2, 2)
	if s.w != uint64(ringLen+memoRecLen(1, 3)) {
		t.Errorf("write position %d after starting over", s.w)
	}
	if _, _, hit, _ := s.lookup(1, 7, 2, []string{"old"}, 3); hit {
		t.Error("a record from before the restart answered")
	}
	if ctr, _, hit, _ := s.lookup(2, 7, 2, []string{"new"}, 3); !hit || ctr != 2 {
		t.Errorf("the record stored across the restart: hit %v ctr %v", hit, ctr)
	}
}

// TestMemoAdmitsOnSecondSight: the first score of a snippet writes
// nothing and allocates no ring, the second stores it, the third is
// answered from the memo.
func TestMemoAdmitsOnSecondSight(t *testing.T) {
	e := New()
	e.UseMicro(testMicroModel())
	st := newMemoStrand(e)
	req := Request{Lines: testLines, MaxN: 3}
	rings := func() (n int) {
		for i := range e.memo.shards {
			if e.memo.shards[i].ring != nil {
				n++
			}
		}
		return n
	}

	st.score(t, req)
	if got := readMemo(e); got.Stores != 0 || got.Hits != 0 || got.Lookups != 1 || rings() != 0 {
		t.Fatalf("first sight: %+v, %d rings allocated; want one lookup and nothing else", got, rings())
	}
	st.score(t, req)
	if got := readMemo(e); got.Stores != 1 || got.Hits != 0 || rings() != 1 {
		t.Fatalf("second sight: %+v, %d rings; want the one store", got, rings())
	}
	st.score(t, req)
	if got := readMemo(e); got.Stores != 1 || got.Hits != 1 || got.Lookups != 3 {
		t.Fatalf("third sight: %+v; want a hit", got)
	}

	// A new version is a new key: same lines, first sight again.
	e.UseMicro(testMicroModel())
	st.score(t, req)
	if got := readMemo(e); got.Stores != 1 || got.Hits != 1 || got.Lookups != 4 {
		t.Fatalf("first sight under the next version: %+v", got)
	}
	// And the old one, rolled back to, still has its record.
	if _, err := e.Rollback(NameMicro); err != nil {
		t.Fatal(err)
	}
	st.score(t, req)
	if got := readMemo(e); got.Hits != 2 {
		t.Fatalf("after rollback: %+v; want the first version's record to answer", got)
	}

	// Traffic that never repeats leaves markers and writes no record.
	before := readMemo(e)
	for i := 0; i < 1000; i++ {
		st.score(t, Request{Lines: []string{"Acme Air", fmt.Sprintf("Find cheap flights to gate %d", i)}})
	}
	if got := readMemo(e); got.Stores != before.Stores || got.Hits != before.Hits || got.Lookups != before.Lookups+1000 {
		t.Fatalf("1000 distinct snippets: %+v → %+v; want lookups only", before, got)
	}
}

// memoFuzzLines is FuzzSnippetMemo's alphabet: few enough lines that
// snippets repeat, two of them long enough that a few stores lap an
// 8 KB ring.
var memoFuzzLines = []string{
	"", "a", "find cheap", "flights", "Find cheap flights to Rome", "Acme Air",
	strings.Repeat("great rates ", 100), strings.Repeat("flights to rome ", 120),
}

// FuzzSnippetMemo drives score / install / rollback from the fuzz bytes
// against an oracle map keyed by (identity, order, lines). The memo may
// miss whenever it likes, but an answer must carry the oracle's bits.
// Hashes are forced (through scoreHashed, the way the CandidateSet tests
// go through addLine) down to a few values, so distinct snippets share
// shard, bucket and tag, buckets overflow and records are re-admitted
// after the ring laps them.
func FuzzSnippetMemo(f *testing.F) {
	f.Add([]byte{0x03, 0x02, 0x02, 0x02, 0x2d, 0x2d, 0x2d, 0x80, 0x02, 0x02, 0x02, 0xc0, 0x02, 0x42, 0x42, 0x42})
	f.Add([]byte{0x00, 0x02, 0x03, 0x04, 0x05, 0x02, 0x03, 0x04, 0x05, 0x02, 0x03, 0x04, 0x05, 0x80, 0x02, 0x03, 0x02, 0x03, 0x02, 0x03})
	f.Add(bytes.Repeat([]byte{0x02, 0x07, 0x07, 0x07, 0x36, 0x36, 0x36, 0x3f, 0x3f, 0x3f, 0x07, 0x02, 0x02, 0x02, 0x80, 0x07, 0xc0, 0x07}, 4))
	models := make([]*core.Model, 3)
	for i := range models {
		models[i] = testMicroModel()
		models[i].Relevance["flights"] = 0.3 + 0.2*float64(i)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		e := New(WithKeepVersions(3))
		e.memo = newSnippetMemo(memoMaxShards) // 8 KB rings
		e.UseMicro(models[0])
		sc := &scratch{memo: e.memo}
		// The first byte says how many hash bits survive: none (one chain
		// for everything) to eight.
		mask := uint64(1)<<(ops[0]%9) - 1

		type key struct {
			ident uint64
			order int
			lines string
		}
		oracle := map[key][2]uint64{}
		var ksc textproc.Scratch
		for i, op := range ops[1:] {
			switch {
			case op < 0x80: // score: a line, maybe a second from the long half, order 2 or 3
				lines := []string{memoFuzzLines[op&7], memoFuzzLines[4+op>>3&3]}[:1+op>>5&1]
				order := 2 + int(op>>6)
				_, _, mv, err := e.resolve(NameMicro)
				if err != nil {
					t.Fatal(err)
				}
				c := mv.scorer.(*MicroScorer).c
				sc.ident = mv.ident
				ctr, score := sc.scoreHashed(c, lines, order, order, keyBytes(lines), memoHash(lines, order, mv.ident)&mask)

				k := key{mv.ident, order, fmt.Sprintf("%q", lines)}
				want, seen := oracle[k]
				if !seen {
					wc, ws := c.ScoreSnippet(lines, order, &ksc)
					want = [2]uint64{math.Float64bits(wc), math.Float64bits(ws)}
					oracle[k] = want
				}
				if got := [2]uint64{math.Float64bits(ctr), math.Float64bits(score)}; got != want {
					t.Fatalf("op %d: %v answered %x, the oracle has %x", i, k, got, want)
				}
			case op < 0xc0:
				e.UseMicro(models[int(op)%len(models)])
			default:
				_, _ = e.Rollback(NameMicro) // refused when nothing is below the live version
			}
		}
		st := readMemo(e)
		if st.Hits > st.Lookups || st.Stores > st.Lookups || st.Overwritten > st.Stores {
			t.Fatalf("counters out of order: %+v", st)
		}
	})
}
