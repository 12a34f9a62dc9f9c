package engine

// The snippet memo: what the engine does not recompute.
//
// A micro score is a pure function of (model version, lines, gram
// order), and serving traffic is a finite inventory of creatives scored
// over and over, so each Engine keeps one bounded memo of answers the
// kernel has already given. It is consulted by MicroScorer.scoreCTR
// before the kernel and stores the two float64s ScoreSnippet returned by
// their bits, so a memoised answer is the kernel's answer.
//
// The store makes no garbage. Each shard is a mutex, a fixed byte ring
// written FIFO and a small 8-way index from a 16-bit hash tag to the
// record's virtual write position (bytes written to the ring since the
// shard began, never reduced modulo its length). A record is live iff
// its position lies within the last ring-length of bytes written; an
// index entry that outlived its record fails that test before a single
// ring byte is read, so ring bytes are only ever interpreted at offsets
// where a whole record was written and not yet overwritten — line bytes
// that spell a record header are never read as one. A hit compares the
// stored hash, version identity, order, line count and every line byte:
// a colliding hash costs a compare, never an alias (DESIGN.md §3, "What
// is not recomputed", has the argument and the designs this replaced).

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/textproc"
)

// Every size of the memo, in one place. None is an option: the shard
// count follows GOMAXPROCS, the rest are constants.
const (
	// memoRingBytes is the ring space of one engine, split evenly over
	// its shards.
	memoRingBytes = 2 << 20
	// memoMaxKey and memoMaxLines bound what is memoised: a snippet with
	// more line bytes or more lines than this always runs the kernel
	// (the record keeps a line length in two bytes and the line count in
	// one, and one oversized request must not flush a shard).
	memoMaxKey   = 4096
	memoMaxLines = 255
	// memoMinShards and memoMaxShards bracket max(16, 4·GOMAXPROCS
	// rounded up to a power of two); the upper bracket keeps a shard's
	// ring (8 KB) above the largest record (memoRecLen(255, 4096) =
	// 4,648 bytes).
	memoMinShards = 16
	memoMaxShards = 256
	// memoWays is the index's associativity — a bucket is one cache line
	// of slots — and the index holds one slot per memoSlotBytes of ring,
	// twice what the ring has room for in records of a usual creative
	// (≈ 130 bytes). Four ways were measured and are not enough: slots
	// are reused oldest first, so the snippets of a bucket that has one
	// more than it has ways evict each other for ever, and at 0.7
	// snippets per bucket a handful of 4-way buckets do (score_mbsp:
	// 17,103 stores in 25 s for 5,502 distinct snippets, the ring
	// filling with copies; 5,502 with eight).
	memoWays      = 8
	memoSlotBytes = 64
)

// Record layout, little-endian. Records are 8-byte aligned and never
// straddle the ring's end: one that does not fit before it starts at
// offset 0 and the skipped tail counts as written.
//
//	 0  hash      uint64   the full key hash
//	 8  ident     uint64   the version's identity in this engine
//	16  ctr       uint64   math.Float64bits
//	24  score     uint64   math.Float64bits
//	32  keyLen    uint16   total line bytes
//	34  lines     uint8
//	35  order     uint8    gram order after the kernel's clamp
//	36  lens      [lines]uint16
//	    bytes     [keyLen]byte
const memoRecHeader = 36

// memoRecLen is the ring space of a record with n lines of keyLen bytes
// in total.
func memoRecLen(n, keyLen int) int {
	return (memoRecHeader + 2*n + keyLen + 7) &^ 7
}

// An index slot packs (position << 17 | used << 16 | tag). Positions
// count from one ring length, which leaves 0 for an empty slot and 1
// for a marker — a snippet seen once and not stored yet. The used bit
// records that the record has answered a request, so that a record
// dropped without it can be counted.
const (
	memoPosShift = 17
	memoUsedBit  = 1 << 16
	memoMarker   = 1
	// memoPosLimit is where a shard starts over rather than let a
	// position outgrow its 47 bits (140 TB of stores into one shard).
	memoPosLimit = 1<<(64-memoPosShift) - memoRingBytes
)

// snippetMemo is one engine's memo. Everything but oversized is guarded
// by the shard it lives in.
type snippetMemo struct {
	shards []memoShard
	shift  uint // the shard is the hash's top bits: h >> shift

	// oversized counts requests over memoMaxKey or memoMaxLines: lookups
	// that missed without choosing a shard. The only shared counter, and
	// not on the path of a request that can hit.
	oversized atomic.Uint64
}

// memoShard is one lock's worth of the memo, padded to two cache lines
// so neighbouring shards' counters do not share one.
type memoShard struct {
	mu    sync.Mutex
	size  int      // ring length in bytes, a power of two
	ring  []byte   // nil until the first store
	index []uint64 // nil until the first lookup; size/memoSlotBytes slots
	w     uint64   // virtual write position: bytes ever written, from size

	lookups, hits, stores, overwritten uint64

	_ [128 - 8 - 8 - 2*24 - 5*8]byte
}

// memoShardCount is max(16, 4·procs rounded up to a power of two), capped
// at memoMaxShards.
func memoShardCount(procs int) int {
	n := 1 << bits.Len(uint(4*procs-1))
	return min(max(n, memoMinShards), memoMaxShards)
}

// newSnippetMemo returns an empty memo of n shards (a power of two);
// rings and indexes are allocated as shards are first used.
func newSnippetMemo(n int) *snippetMemo {
	m := &snippetMemo{shards: make([]memoShard, n), shift: uint(64 - bits.TrailingZeros(uint(n)))}
	for i := range m.shards {
		m.shards[i].size = memoRingBytes / n
	}
	return m
}

// scoreSnippet is c.ScoreSnippet behind the strand's memo: the stored
// answer when version sc.ident has scored these lines at this order
// before, the kernel's otherwise — stored in turn the second time a
// snippet misses. Without a memo (a scratch outside an engine) it is the
// kernel alone.
//
//mb:noalloc
func (sc *scratch) scoreSnippet(c *core.CompiledModel, lines []string, maxN int) (ctr, score float64) {
	if sc.memo != nil {
		keyLen := 0
		for _, line := range lines {
			keyLen += len(line)
		}
		if len(lines) <= memoMaxLines && keyLen <= memoMaxKey {
			// The key holds the order the kernel will use, not the one
			// asked for: ScoreSnippet clamps through textproc.GramOrder, so
			// max_n 3, 4 and 200 are one entry.
			order := textproc.GramOrder(maxN)
			return sc.scoreHashed(c, lines, maxN, order, keyLen, memoHash(lines, order, sc.ident))
		}
		sc.memo.oversized.Add(1)
	}
	return c.ScoreSnippet(lines, maxN, &sc.text)
}

// scoreHashed is scoreSnippet past the bounds, with the key
// hash supplied by the caller: split out so the collision tests can force
// distinct snippets onto one shard, bucket and tag.
//
//mb:noalloc
func (sc *scratch) scoreHashed(c *core.CompiledModel, lines []string, maxN, order, keyLen int, h uint64) (ctr, score float64) {
	m := sc.memo
	sh := &m.shards[h>>m.shift]
	ctr, score, hit, admit := sh.lookup(h, sc.ident, order, lines, keyLen)
	if hit {
		return ctr, score
	}
	ctr, score = c.ScoreSnippet(lines, maxN, &sc.text)
	if admit {
		sh.store(h, sc.ident, order, lines, keyLen, ctr, score)
	}
	return ctr, score
}

// memoHash folds a snippet's line hashes, then the version identity and
// the order, into the key hash. Line boundaries count (HashLine seeds
// with the length) and so does line order (the fold is not commutative).
func memoHash(lines []string, order int, ident uint64) uint64 {
	h := textproc.NGramHashSeed
	for _, line := range lines {
		h = textproc.ExtendNGramHash(h, textproc.HashLine(line))
	}
	return textproc.ExtendNGramHash(h, ident<<2|uint64(order))
}

// bucket returns the index slots and the tag a hash selects: the tag is
// the hash's low 16 bits, the bucket the bits above them.
func (s *memoShard) bucket(h uint64) ([]uint64, uint64) {
	b := int(h>>16) & (len(s.index)/memoWays - 1)
	return s.index[b*memoWays : b*memoWays+memoWays : b*memoWays+memoWays], h & 0xffff
}

// live reports whether the record at virtual position pos is still in
// the ring: nothing at or after pos + size has been written.
func (s *memoShard) live(pos uint64) bool { return s.w-pos <= uint64(s.size) }

// drop accounts for an index entry about to be overwritten or found
// dead: a record that never answered a request was stored for nothing.
func (s *memoShard) drop(slot uint64) {
	if slot>>memoPosShift > memoMarker && slot&memoUsedBit == 0 {
		s.overwritten++
	}
}

// lookup answers from the shard or says what to do after the kernel
// has: admit is true on the second and later misses of a snippet (its
// marker, or the index entry of its overwritten record, is there), and
// a first miss leaves the marker.
//
//mb:noalloc
func (s *memoShard) lookup(h, ident uint64, order int, lines []string, keyLen int) (ctr, score float64, hit, admit bool) {
	s.mu.Lock()
	s.lookups++
	if s.index == nil {
		s.index = make([]uint64, s.size/memoSlotBytes) //mb:allocok a shard's first lookup
	}
	slots, tag := s.bucket(h)
	for i, slot := range slots {
		if slot == 0 || slot&0xffff != tag {
			continue
		}
		pos := slot >> memoPosShift
		if pos == memoMarker {
			admit = true
			continue
		}
		if !s.live(pos) {
			s.drop(slot)
			slots[i] = memoMarker<<memoPosShift | tag
			admit = true
			continue
		}
		rec := s.ring[pos&uint64(s.size-1):]
		if memoMatch(rec, h, ident, order, lines, keyLen) {
			s.hits++
			// Set once: a hit on a record already used only reads its
			// bucket, so cores hitting one bucket each keep a clean copy
			// of that line instead of taking it from one another.
			if slot&memoUsedBit == 0 {
				slots[i] = slot | memoUsedBit
			}
			ctr = math.Float64frombits(binary.LittleEndian.Uint64(rec[16:]))
			score = math.Float64frombits(binary.LittleEndian.Uint64(rec[24:]))
			s.mu.Unlock()
			return ctr, score, true, false
		}
	}
	if !admit {
		v := memoVictim(slots)
		s.drop(slots[v])
		slots[v] = memoMarker<<memoPosShift | tag
	}
	s.mu.Unlock()
	return 0, 0, false, admit
}

// memoVictim picks the slot a new entry replaces: an empty one, else a
// marker, else the oldest record — the smallest position, FIFO like the
// ring itself.
func memoVictim(slots []uint64) int {
	v := 0
	for i := 1; i < len(slots); i++ {
		if slots[i]>>memoPosShift < slots[v]>>memoPosShift {
			v = i
		}
	}
	return v
}

// memoMatch compares a live record with a key. rec starts at a record
// the liveness test vouched for, so once the fixed fields agree the
// lengths and bytes read below are that record's own.
func memoMatch(rec []byte, h, ident uint64, order int, lines []string, keyLen int) bool {
	if binary.LittleEndian.Uint64(rec) != h || binary.LittleEndian.Uint64(rec[8:]) != ident ||
		int(binary.LittleEndian.Uint16(rec[32:])) != keyLen || int(rec[34]) != len(lines) || int(rec[35]) != order {
		return false
	}
	lens := rec[memoRecHeader : memoRecHeader+2*len(lines)]
	body := rec[memoRecHeader+2*len(lines):]
	for i, line := range lines {
		if int(binary.LittleEndian.Uint16(lens[2*i:])) != len(line) || string(body[:len(line)]) != line {
			return false
		}
		body = body[len(line):]
	}
	return true
}

// store writes the kernel's answer for a snippet whose marker lookup
// left or found. If the marker is gone — another strand stored the
// snippet first, or other first sights pushed the marker out — nothing
// is written and the snippet starts over.
//
//mb:noalloc
func (s *memoShard) store(h, ident uint64, order int, lines []string, keyLen int, ctr, score float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	slots, tag := s.bucket(h)
	at := -1
	for i, slot := range slots {
		if slot == memoMarker<<memoPosShift|tag {
			at = i
			break
		}
	}
	if at < 0 {
		return
	}
	if s.ring == nil {
		s.ring = make([]byte, s.size) //mb:allocok a shard's first store
		s.w = uint64(s.size)
	}
	if s.w >= memoPosLimit {
		clear(s.index) // slots[at] is written below
		s.w = uint64(s.size)
	}
	need := memoRecLen(len(lines), keyLen)
	off := int(s.w) & (s.size - 1)
	if off+need > s.size { // never straddle: the tail counts as written
		s.w += uint64(s.size - off)
		off = 0
	}
	rec := s.ring[off : off+need]
	binary.LittleEndian.PutUint64(rec, h)
	binary.LittleEndian.PutUint64(rec[8:], ident)
	binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(ctr))
	binary.LittleEndian.PutUint64(rec[24:], math.Float64bits(score))
	binary.LittleEndian.PutUint16(rec[32:], uint16(keyLen))
	rec[34], rec[35] = byte(len(lines)), byte(order)
	body := rec[memoRecHeader+2*len(lines):]
	for i, line := range lines {
		binary.LittleEndian.PutUint16(rec[memoRecHeader+2*i:], uint16(len(line)))
		body = body[copy(body, line):]
	}
	slots[at] = s.w<<memoPosShift | tag
	s.w += uint64(need)
	s.stores++
}

// metrics declares what the memo did since the engine was built: the
// memo block of /healthz and the microserve_engine_memo_* families.
// Lookups also count the oversized requests, which missed without
// choosing a shard.
func (m *snippetMemo) metrics() obs.List {
	counter := func(key, help string, read func() float64) obs.Metric {
		return obs.Metric{Name: "microserve_engine_memo_" + key + "_total", Help: help, Kind: obs.KindCounter,
			Block: "memo", Key: key, Value: read}
	}
	return obs.List{
		counter("lookups", "Micro requests that looked in the snippet memo.", func() float64 {
			return float64(m.oversized.Load()) + m.sum(func(s *memoShard) uint64 { return s.lookups })
		}),
		counter("hits", "Micro requests answered from the snippet memo, the kernel not run.", func() float64 {
			return m.sum(func(s *memoShard) uint64 { return s.hits })
		}),
		counter("stores", "Records written to the snippet memo (a snippet's second miss).", func() float64 {
			return m.sum(func(s *memoShard) uint64 { return s.stores })
		}),
		counter("overwritten", "Snippet memo records that left (the ring came round, the index slot was reused) before answering any request.", func() float64 {
			return m.sum(func(s *memoShard) uint64 { return s.overwritten })
		}),
	}
}

// sum totals one per-shard counter, taking each shard's lock in turn: a
// scrape-time read, not a hot-path one.
func (m *snippetMemo) sum(field func(*memoShard) uint64) float64 {
	var n uint64
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		n += field(s)
		s.mu.Unlock()
	}
	return float64(n)
}
