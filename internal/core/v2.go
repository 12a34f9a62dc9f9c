package core

// v2 (zero-parse) snapshot codec for the micro-browsing model. Where
// the v1 artifact serializes the *fitting* form (the Relevance map,
// re-compiled on every load), a v2 artifact serializes the *compiled*
// form: the frozen vocabulary's flat sections, the clamped relevance
// and precomputed log-relevance arrays, and the dense attention table
// are written as raw little-endian memory. Loading is therefore O(1) in
// the table size — CompiledFromArtifact wraps zero-copy views over the
// artifact bytes (typically a read-only file mapping owned by
// internal/mmap) and computes nothing but a few scalars.
//
// Section layout (tags are the v2 directory keys):
//
//	meta    bytes    raw-encoded scalars: default relevance, attention
//	                 spec (kind + params), attention-table dims
//	v.*     —        the frozen vocabulary's four sections (v.blob,
//	                 v.offs, v.tabl, v.tags), written and read by
//	                 textproc's WriteSections/ReadSections, which own
//	                 that layout; an artifact without v.tags predates
//	                 the tags and still loads (they are derived, O(n))
//	rel     float64  id -> clamped relevance
//	logrel  float64  id -> log(clamped relevance)
//	attw    float64  dense (line, pos) attention table; empty when the
//	                 attention layer is Full (every weight 1)

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/snapshot"
	"repro/internal/textproc"
)

const (
	v2TagMeta   = "meta"
	v2TagVocab  = "v" // section prefix of the frozen vocabulary
	v2TagRel    = "rel"
	v2TagLogRel = "logrel"
	v2TagAttW   = "attw"
)

// SaveV2 writes the compiled model as a zero-parse v2 artifact. The
// attention layer must be one of the shipped serializable families
// (the same constraint as the v1 codec).
func (c *CompiledModel) SaveV2(w io.Writer) error {
	var meta bytes.Buffer
	e := snapshot.NewRawEncoder(&meta)
	e.Float(c.defRel)
	switch att := c.att.(type) {
	case FullAttention:
		e.Uint(attFull)
	case GeometricAttention:
		e.Uint(attGeometric)
		e.Floats(att.LineWeights)
		e.Float(att.Decay)
	case TableAttention:
		e.Uint(attTable)
		e.Int(len(att.W))
		for _, row := range att.W {
			e.Floats(row)
		}
		e.Float(att.Default)
	default:
		return fmt.Errorf("core: attention %T is not snapshot-serializable", c.att)
	}
	e.Int(attTableLines)
	e.Int(attTableCols)
	if err := e.Flush(); err != nil {
		return err
	}

	vw := snapshot.NewV2Writer(SnapshotName)
	vw.Bytes(v2TagMeta, meta.Bytes())
	c.vocab.WriteSections(vw, v2TagVocab)
	vw.Floats(v2TagRel, c.rel)
	vw.Floats(v2TagLogRel, c.logRel)
	vw.Floats(v2TagAttW, c.attW) // empty under full attention
	_, err := vw.WriteTo(w)
	return err
}

// SaveV2 compiles the model and writes the zero-parse artifact — the
// export-side convenience (clickmodelfit -format v2, snapshot conv).
func (m *Model) SaveV2(w io.Writer) error { return m.Compile().SaveV2(w) }

// CompiledFromArtifact builds a serving-ready compiled model whose
// tables are zero-copy views into the artifact's bytes. Nothing is
// decoded except the meta scalars, so the call is O(1) in model size.
// The artifact bytes must outlive the returned model — when they are a
// file mapping, the engine's refcounted version table pins the mapping
// until the last scorer drains.
//
// The returned model's Source is nil: a mapped model has no fitting
// form. It scores; it does not refit.
func CompiledFromArtifact(a *snapshot.V2Artifact) (*CompiledModel, error) {
	if !strings.EqualFold(a.ModelName, SnapshotName) {
		return nil, fmt.Errorf("core: artifact holds a %q model, not %q", a.ModelName, SnapshotName)
	}
	meta, err := a.BytesView(v2TagMeta)
	if err != nil {
		return nil, err
	}
	c := &CompiledModel{}
	d := snapshot.NewRawDecoder(bytes.NewReader(meta))
	c.defRel = clampRel(d.Float())
	c.defLogRel = math.Log(c.defRel)
	switch kind := d.Uint(); kind {
	case attNil, attFull:
		c.att = FullAttention{}
		c.attFull = true
	case attGeometric:
		c.att = GeometricAttention{LineWeights: d.Floats(), Decay: d.Float()}
	case attTable:
		rows := d.Int()
		w := make([][]float64, 0, min(rows, 4096))
		for i := 0; i < rows; i++ {
			w = append(w, d.Floats())
			if d.Err() != nil {
				return nil, d.Err()
			}
		}
		c.att = TableAttention{W: w, Default: d.Float()}
	default:
		return nil, fmt.Errorf("%w: unknown attention kind %d", snapshot.ErrCorrupt, kind)
	}
	lines, cols := d.Int(), d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if lines != attTableLines || cols != attTableCols {
		return nil, fmt.Errorf("core: artifact attention table is %d×%d, this build serves %d×%d — re-export the artifact",
			lines, cols, attTableLines, attTableCols)
	}

	if c.vocab, err = textproc.ReadSections(a, v2TagVocab); err != nil {
		return nil, err
	}
	if c.rel, err = a.FloatsView(v2TagRel); err != nil {
		return nil, err
	}
	if c.logRel, err = a.FloatsView(v2TagLogRel); err != nil {
		return nil, err
	}
	n := c.vocab.Len()
	if len(c.rel) != n || len(c.logRel) != n {
		return nil, fmt.Errorf("%w: %d vocabulary terms but %d relevances / %d log-relevances",
			snapshot.ErrCorrupt, n, len(c.rel), len(c.logRel))
	}
	if c.attW, err = a.FloatsView(v2TagAttW); err != nil {
		return nil, err
	}
	if !c.attFull && len(c.attW) != attTableLines*attTableCols {
		return nil, fmt.Errorf("%w: attention table holds %d weights, want %d",
			snapshot.ErrCorrupt, len(c.attW), attTableLines*attTableCols)
	}
	if c.attFull {
		c.attW = nil
	}
	return c, nil
}

// ValidateTables runs the deep O(n) checks CompiledFromArtifact defers
// (the frozen vocabulary's per-element invariants, its tags included);
// verified load paths call it before install so untrusted artifacts
// stay fail-closed while trusted local loads remain O(1).
func (c *CompiledModel) ValidateTables() error { return c.vocab.Validate() }
