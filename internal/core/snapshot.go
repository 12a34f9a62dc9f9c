package core

// Snapshots of the micro-browsing model: Save writes the compiled form
// as a v2 artifact (v2.go) under the reserved model name "micro", which
// CompiledFromArtifact serves. Only the shipped attention families
// (Full, Geometric, Table, nil) are serializable.

import (
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

// readRows reads a TableAttention's rows from a v2 meta section: a
// count, then each row's floats.
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
