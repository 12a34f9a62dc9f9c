package clickmodel

// The v1 decoders. v1 artifacts are read and never written: DecodeV1
// turns a v1 payload into the fitted model it describes, and
// internal/engine's importer — its one caller — saves that model again
// as v2. Per-pair maps were stored as a query vocabulary, a (query ID,
// doc) pair table and one value per pair.
//
// Every count is bounded by the bytes left in the payload before
// anything is sized from it, and every decoded shape a scorer indexes
// by is checked, so a hostile payload ends in an error, not a panic or
// a large allocation.

import (
	"fmt"
	"maps"
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
	switch t := m.(type) {
	case *PBM:
		t.Gamma = c.Floats()
		t.Alpha = v1Pairs(c)
		t.PriorAlpha = c.Float()
		t.Iterations = c.Int()
	case *Cascade:
		alpha := v1Pairs(c)
		t.PriorAlpha, t.LaplaceA, t.LaplaceB = c.Float(), c.Float(), c.Float()
		t.pairs = v1Table(alpha)
		t.alphas = mapValues(t.pairs.pairs, alpha, t.PriorAlpha)
	case *DCM:
		alpha := v1Pairs(c)
		t.Lambda = c.Floats()
		t.PriorAlpha, t.LaplaceA, t.LaplaceB = c.Float(), c.Float(), c.Float()
		t.pairs = v1Table(alpha)
		t.alphas = mapValues(t.pairs.pairs, alpha, t.PriorAlpha)
	case *UBM:
		v1UBM(t, c)
	case *BBM:
		v1BBM(t, c)
	case *CCM:
		t.Rel = v1Pairs(c)
		t.Alpha1, t.Alpha2, t.Alpha3 = c.Float(), c.Float(), c.Float()
		t.PriorR = c.Float()
		t.Iterations = c.Int()
	case *DBN:
		t.AttrA = v1Pairs(c)
		t.SatS = v1Pairs(c)
		t.Gamma, t.PriorA, t.PriorS = c.Float(), c.Float(), c.Float()
		t.Iterations = c.Int()
	case *SDBN:
		attr, sat := v1Pairs(c), v1Pairs(c)
		t.PriorA, t.PriorS, t.LaplaceA, t.LaplaceB = c.Float(), c.Float(), c.Float(), c.Float()
		t.pairs = v1Table(attr, sat)
		t.attr, t.sat = mapValues(t.pairs.pairs, attr, t.PriorA), mapValues(t.pairs.pairs, sat, t.PriorS)
	case *GCM:
		t.Rel = v1Pairs(c)
		t.LambdaSkip = c.Floats()
		t.LambdaClick = c.Floats()
		t.PriorR = c.Float()
		t.Iterations = c.Int()
	case *SUM:
		t.Utility = v1Pairs(c)
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
	return m, nil
}

// v1Pairs reads one per-pair map.
func v1Pairs(c *snapshot.Cursor) map[qd]float64 {
	queries := v1Queries(c)
	n := c.Int()
	if n > c.Remaining()/10 { // a pair is at least a query ID, a doc length and a value
		c.Failf("%d pairs overrun the payload", n)
	}
	if c.Err() != nil {
		return nil
	}
	keys := make([]qd, n)
	for i := range keys {
		qi, doc := c.Uint(), c.String()
		if c.Err() != nil {
			return nil
		}
		if qi >= uint64(len(queries)) {
			c.Failf("pair %d references query %d of %d", i, qi, len(queries))
			return nil
		}
		keys[i] = qd{queries[qi], doc}
	}
	out := make(map[qd]float64, n)
	for _, k := range keys {
		out[k] = c.Float()
	}
	return out
}

// v1Table is a counting model's pair table over the union of the keys
// of its v1 per-pair maps, in sorted order.
func v1Table(ms ...map[qd]float64) *pairTable {
	var keys []qd
	for _, m := range ms {
		keys = slices.AppendSeq(keys, maps.Keys(m))
	}
	slices.SortFunc(keys, compareQD)
	return pairTableOf(slices.Compact(keys))
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

func v1UBM(m *UBM, c *snapshot.Cursor) {
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
	m.Alpha = v1Pairs(c)
	m.PriorAlpha = c.Float()
	m.Iterations = c.Int()
}

func v1BBM(m *BBM, c *snapshot.Cursor) {
	m.GridSize = c.Int()
	if m.GridSize > maxGridSize {
		c.Failf("BBM grid of %d points", m.GridSize)
	}
	m.Browse = NewUBM()
	v1UBM(m.Browse, c)

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
	for k := range m.Browse.Alpha {
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
}
