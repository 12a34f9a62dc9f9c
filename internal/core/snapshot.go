package core

// Snapshots of the micro-browsing model: Save writes the compiled form
// as a v2 artifact (v2.go) under the reserved model name "micro", which
// CompiledFromArtifact serves. Only the shipped attention families
// (Full, Geometric, Table, nil) are serializable. v1 artifacts are read
// by DecodeV1, for internal/engine's importer alone.

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/snapshot"
)

// SnapshotName is the model name recorded in micro-browsing artifacts,
// matching the engine's reserved "micro" scorer name.
const SnapshotName = "micro"

// Attention kind bytes in artifacts.
const (
	attNil       = 0 // no attention layer (degenerates to FullAttention)
	attFull      = 1
	attGeometric = 2
	attTable     = 3
)

// Save writes the model as a v2 artifact: its compiled form with the
// terms numbered in sorted order, so equal models write equal bytes.
// (Compile numbers them in map order, which costs nothing and differs
// from run to run; the sort is paid on export only.) It fails if the
// attention layer is a custom implementation the codec cannot
// represent.
func (m *Model) Save(w io.Writer) error {
	terms := make([]string, 0, len(m.Relevance))
	for t := range m.Relevance {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	rel := make([]float64, len(terms))
	for id, t := range terms {
		rel[id] = clampRel(m.Relevance[t])
	}
	return m.compile(terms, rel).SaveV2(w)
}

// DecodeV1 builds the model a v1 micro payload describes, consuming it
// exactly. internal/engine's importer is its one caller: the model is
// saved again as v2, never served from v1.
func DecodeV1(c *snapshot.Cursor) (*Model, error) {
	m := NewModel(nil)
	n := c.Int()
	if n > c.Remaining() { // a term is at least its length byte
		c.Failf("%d terms overrun the payload", n)
	}
	if c.Err() != nil {
		return nil, c.Err()
	}
	terms := make([]string, n)
	for i := range terms {
		terms[i] = c.String()
	}
	for _, t := range terms {
		m.Relevance[t] = c.Float()
	}
	m.DefaultRelevance = c.Float()

	switch kind := c.Uint(); kind {
	case attNil:
	case attFull:
		m.Attention = FullAttention{}
	case attGeometric:
		m.Attention = GeometricAttention{LineWeights: c.Floats(), Decay: c.Float()}
	case attTable:
		m.Attention = TableAttention{W: readRows(c), Default: c.Float()}
	default:
		c.Failf("unknown attention kind %d", kind)
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	if c.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the micro payload", snapshot.ErrCorrupt, c.Remaining())
	}
	return m, nil
}

// readRows reads a TableAttention's rows: a count, then each row's
// floats — the same form in a v1 payload and a v2 meta section.
func readRows(c *snapshot.Cursor) [][]float64 {
	n := c.Int()
	if n > c.Remaining() { // a row is at least its length byte
		c.Failf("%d attention rows overrun the payload", n)
	}
	if c.Err() != nil {
		return nil
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = c.Floats()
	}
	return rows
}

// NumParams reports the relevance-table size — the engine's Models()
// metadata for micro scorers.
func (m *Model) NumParams() int { return len(m.Relevance) }
