package clickmodel

// The v1 decoders. v1 artifacts are read and never written: DecodeV1
// turns a v1 payload into the fitted model it describes, and
// internal/engine's importer — its one caller — saves that model again
// as v2. Per-pair maps were stored as a query vocabulary, a (query ID,
// doc) pair table and one value per pair; a model's maps decode into
// the one form every model holds, a pair table over the union of their
// keys and one value array per map (v1Table, v1Map.over).
//
// Every count is bounded by the bytes left in the payload before
// anything is sized from it, and every decoded shape a scorer indexes
// by is checked, so a hostile payload ends in an error, not a panic or
// a large allocation.

import (
	"fmt"
	"slices"

	"repro/internal/snapshot"
)

// DecodeV1 builds the registry model name from a v1 payload, which it
// must consume exactly.
func DecodeV1(name string, c *snapshot.Cursor) (Model, error) {
	m, err := New(name)
	if err != nil {
		return nil, err
	}
	var maps []v1Map // in the order m's parameter list names them
	pairs := func() { maps = append(maps, v1Pairs(c)) }
	switch t := m.(type) {
	case *PBM:
		t.Gamma = c.Floats()
		pairs()
		t.PriorAlpha = c.Float()
		t.Iterations = c.Int()
	case *Cascade:
		pairs()
		t.PriorAlpha, t.LaplaceA, t.LaplaceB = c.Float(), c.Float(), c.Float()
	case *DCM:
		pairs()
		t.Lambda = c.Floats()
		t.PriorAlpha, t.LaplaceA, t.LaplaceB = c.Float(), c.Float(), c.Float()
	case *UBM:
		maps = append(maps, v1UBM(t, c))
	case *BBM:
		maps = append(maps, v1BBM(t, c))
	case *CCM:
		pairs()
		t.Alpha1, t.Alpha2, t.Alpha3 = c.Float(), c.Float(), c.Float()
		t.PriorR = c.Float()
		t.Iterations = c.Int()
	case *DBN:
		pairs()
		pairs()
		t.Gamma, t.PriorA, t.PriorS = c.Float(), c.Float(), c.Float()
		t.Iterations = c.Int()
	case *SDBN:
		pairs()
		pairs()
		t.PriorA, t.PriorS, t.LaplaceA, t.LaplaceB = c.Float(), c.Float(), c.Float(), c.Float()
	case *GCM:
		pairs()
		t.LambdaSkip = c.Floats()
		t.LambdaClick = c.Floats()
		t.PriorR = c.Float()
		t.Iterations = c.Int()
	case *SUM:
		pairs()
		t.baseCTR = c.Floats()
		t.PriorU = c.Float()
		t.Iterations = c.Int()
	default:
		return nil, fmt.Errorf("clickmodel: model %q has no v1 decoder", name)
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	if c.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the %s payload", snapshot.ErrCorrupt, c.Remaining(), m.Name())
	}
	// One table over every map's pairs, and each map's values over it.
	tab := v1Table(maps...)
	for _, p := range m.params() {
		if p.kind == pairDense {
			*p.tab, *p.vals = tab, maps[0].over(tab, *p.prior)
			maps = maps[1:]
		}
	}
	return m, nil
}

// v1Map is one per-pair map as v1 stored it: its keys in a table of
// their own — a key listed twice resolves to its last value, as the map
// held it — and the values by pair ID.
type v1Map struct {
	tab  *pairTable
	vals []float64
}

// v1Pairs reads one per-pair map.
func v1Pairs(c *snapshot.Cursor) v1Map {
	queries := v1Queries(c)
	n := c.Int()
	if n > c.Remaining()/10 { // a pair is at least a query ID, a doc length and a value
		c.Failf("%d pairs overrun the payload", n)
	}
	if c.Err() != nil {
		return v1Map{}
	}
	keys := make([]qd, n)
	for i := range keys {
		qi, doc := c.Uint(), c.String()
		if c.Err() != nil {
			return v1Map{}
		}
		if qi >= uint64(len(queries)) {
			c.Failf("pair %d references query %d of %d", i, qi, len(queries))
			return v1Map{}
		}
		keys[i] = qd{queries[qi], doc}
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = c.Float()
	}
	return v1Map{pairTableOf(keys), vals}
}

// v1Table is a model's pair table over the union of the keys of its v1
// per-pair maps, in sorted order.
func v1Table(ms ...v1Map) *pairTable {
	var keys []qd
	for _, m := range ms {
		if m.tab != nil {
			keys = append(keys, m.tab.pairs...)
		}
	}
	slices.SortFunc(keys, compareQD)
	return pairTableOf(slices.Compact(keys))
}

// over lists the map's values by pair ID of tab, a pair the map lacks
// holding prior.
func (m v1Map) over(tab *pairTable, prior float64) []float64 {
	return valuesOver(tab.pairs, m.tab, m.vals, prior)
}

// v1Queries reads a query vocabulary: a count, then each string.
func v1Queries(c *snapshot.Cursor) []string {
	n := c.Int()
	if n > c.Remaining() { // a string is at least its length byte
		c.Failf("%d queries overrun the payload", n)
	}
	if c.Err() != nil {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = c.String()
	}
	return out
}

// v1UBM reads a UBM, returning its per-pair map.
func v1UBM(m *UBM, c *snapshot.Cursor) v1Map {
	n := c.Int()
	flat := c.Floats()
	if c.Err() == nil && len(flat) != tri(n) {
		c.Failf("triangular table claims %d rows but holds %d cells", n, len(flat))
	}
	if c.Err() == nil && n > 0 {
		m.Gamma = make([][]float64, n)
		for i := range m.Gamma {
			m.Gamma[i] = flat[tri(i) : tri(i)+i+1 : tri(i)+i+1]
		}
	}
	alpha := v1Pairs(c)
	m.PriorAlpha = c.Float()
	m.Iterations = c.Int()
	return alpha
}

// v1BBM reads a BBM, returning its browsing layer's per-pair map.
func v1BBM(m *BBM, c *snapshot.Cursor) (alpha v1Map) {
	m.GridSize = c.Int()
	if m.GridSize > maxGridSize {
		c.Failf("BBM grid of %d points", m.GridSize)
	}
	m.Browse = NewUBM()
	alpha = v1UBM(m.Browse, c)

	queries := v1Queries(c)
	nPair := c.Int()
	if nPair > c.Remaining()/2 { // a pair is at least a query ID and a doc length
		c.Failf("%d BBM pairs overrun the payload", nPair)
	}
	if c.Err() != nil {
		return
	}
	keys := make([]qd, nPair)
	for i := range keys {
		qid, doc := c.Uint(), c.String()
		if c.Err() != nil {
			return
		}
		if qid >= uint64(len(queries)) {
			c.Failf("BBM pair %d references query %d of %d", i, qid, len(queries))
			return
		}
		keys[i] = qd{queries[qid], doc}
	}
	m.pairs = pairTableOf(keys)
	// A fit counts every pair its browsing layer holds. A layer holding
	// more would cost a row of skip counts per extra pair on export.
	for _, k := range alpha.tab.pairs {
		if _, counted := m.pairs.find(k.q, k.d); !counted {
			c.Failf("BBM browsing layer holds a pair (%q, %q) its counts lack", k.q, k.d)
			return
		}
	}
	m.clicks = c.Floats()
	m.cellGamma = c.Floats()
	if c.Err() == nil && len(m.clicks) != nPair {
		c.Failf("BBM holds %d click counts for %d pairs", len(m.clicks), nPair)
	}
	if c.Bool() {
		m.nCell = c.Int()
		m.nonClick = c.Floats()
		if c.Err() == nil && (m.nCell != len(m.cellGamma) || len(m.nonClick) != nPair*m.nCell) {
			c.Failf("BBM skip matrix holds %d cells for %d pairs of %d cells over %d gammas", len(m.nonClick), nPair, m.nCell, len(m.cellGamma))
		}
		return
	}
	if n := c.Int(); c.Err() == nil && n != nPair {
		c.Failf("BBM sparse skip counts cover %d pairs, want %d", n, nPair)
	}
	if c.Err() != nil {
		return
	}
	m.nonClickS = make([]map[int32]float64, nPair)
	for p := range m.nonClickS {
		k := c.Int()
		if k > c.Remaining()/9 { // a cell is at least one varint byte and a value
			c.Failf("%d skip cells overrun the payload", k)
		}
		if c.Err() != nil || k == 0 {
			continue
		}
		inner := make(map[int32]float64, k)
		for j := 0; j < k; j++ {
			cell := c.Uint()
			if c.Err() == nil && cell >= uint64(len(m.cellGamma)) {
				c.Failf("BBM skip cell %d of %d", cell, len(m.cellGamma))
			}
			inner[int32(cell)] = c.Float()
		}
		m.nonClickS[p] = inner
	}
	return alpha
}
