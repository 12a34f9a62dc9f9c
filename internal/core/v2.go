package core

// v2 (zero-parse) snapshot codec for the micro-browsing model. A v2
// artifact serializes the *compiled* form, not the Relevance map: the
// frozen vocabulary's flat sections, the clamped relevance and
// precomputed log-relevance arrays, and the dense attention table are
// written as raw little-endian memory. Loading is therefore O(1) in
// the table size — CompiledFromArtifact wraps zero-copy views over the
// artifact bytes (typically a read-only file mapping owned by
// internal/mmap) and computes nothing but a few scalars.
//
// Section layout (tags are the v2 directory keys):
//
//	meta    bytes    scalars in the snapshot Append forms: default
//	                 relevance, attention spec (kind + params),
//	                 attention-table dims
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
// attention layer must be one of the shipped serializable families.
func (c *CompiledModel) SaveV2(w io.Writer) error {
	meta := snapshot.AppendFloat(nil, c.defRel)
	switch att := c.att.(type) {
	case FullAttention:
		meta = snapshot.AppendUint(meta, attFull)
	case GeometricAttention:
		meta = snapshot.AppendUint(meta, attGeometric)
		meta = snapshot.AppendFloats(meta, att.LineWeights)
		meta = snapshot.AppendFloat(meta, att.Decay)
	case TableAttention:
		meta = snapshot.AppendUint(meta, attTable)
		meta = snapshot.AppendUint(meta, uint64(len(att.W)))
		for _, row := range att.W {
			meta = snapshot.AppendFloats(meta, row)
		}
		meta = snapshot.AppendFloat(meta, att.Default)
	default:
		return fmt.Errorf("core: attention %T is not snapshot-serializable", c.att)
	}
	meta = snapshot.AppendUint(meta, attTableLines)
	meta = snapshot.AppendUint(meta, attTableCols)

	vw := snapshot.NewV2Writer(snapshotName)
	vw.Bytes(v2TagMeta, meta)
	c.vocab.WriteSections(vw, v2TagVocab)
	vw.Floats(v2TagRel, c.rel)
	vw.Floats(v2TagLogRel, c.logRel)
	vw.Floats(v2TagAttW, c.attW) // empty under full attention
	_, err := vw.WriteTo(w)
	return err
}

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
	if !strings.EqualFold(a.ModelName, snapshotName) {
		return nil, fmt.Errorf("core: artifact holds a %q model, not %q", a.ModelName, snapshotName)
	}
	meta, err := a.BytesView(v2TagMeta)
	if err != nil {
		return nil, err
	}
	c := &CompiledModel{}
	d := snapshot.NewCursor(meta)
	c.defRel = clampRel(d.Float())
	c.defLogRel = math.Log(c.defRel)
	switch kind := d.Uint(); kind {
	case attNil, attFull:
		c.att = FullAttention{}
		c.attFull = true
	case attGeometric:
		c.att = GeometricAttention{LineWeights: d.Floats(), Decay: d.Float()}
	case attTable:
		c.att = TableAttention{W: readRows(d), Default: d.Float()}
	default:
		d.Failf("unknown attention kind %d", kind)
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

// ValidateTables runs the deep O(n) checks CompiledFromArtifact defers,
// so that a verified load serves only tables Compile could have built:
// the frozen vocabulary's per-element invariants (its tags included);
// every relevance, the default's too, in [1e-9, 1] and every
// log-relevance exactly math.Log of it; a table attention's cells not
// NaN and its default in [0, 1] (cells outside [0, 1] are clamped by
// Examine); and the dense attention table, a cache of the attention
// layer, equal to it bit for bit. Any other table could put a CTR
// outside [0, 1]. Verified load paths call it before install so
// untrusted artifacts stay fail-closed while trusted local loads remain
// O(1).
func (c *CompiledModel) ValidateTables() error {
	if err := c.vocab.Validate(); err != nil {
		return err
	}
	if !(c.defRel >= 1e-9 && c.defRel <= 1) {
		return fmt.Errorf("%w: default relevance %v outside [1e-9, 1]", snapshot.ErrCorrupt, c.defRel)
	}
	for id, r := range c.rel {
		if !(r >= 1e-9 && r <= 1) {
			return fmt.Errorf("%w: term %d has relevance %v outside [1e-9, 1]", snapshot.ErrCorrupt, id, r)
		}
		if math.Float64bits(c.logRel[id]) != math.Float64bits(math.Log(r)) {
			return fmt.Errorf("%w: term %d has log-relevance %v, not log(%v)", snapshot.ErrCorrupt, id, c.logRel[id], r)
		}
	}
	if t, ok := c.att.(TableAttention); ok {
		if !(t.Default >= 0 && t.Default <= 1) {
			return fmt.Errorf("%w: attention default %v outside [0, 1]", snapshot.ErrCorrupt, t.Default)
		}
		for i, row := range t.W {
			for j, v := range row {
				if math.IsNaN(v) {
					return fmt.Errorf("%w: attention cell (%d, %d) is NaN", snapshot.ErrCorrupt, i+1, j+1)
				}
			}
		}
	}
	for i, v := range c.attW {
		line, pos := i/attTableCols+1, i%attTableCols+1
		if !(v >= 0 && v <= 1) || math.Float64bits(v) != math.Float64bits(c.att.Examine(line, pos)) {
			return fmt.Errorf("%w: attention table cell (%d, %d) is %v, the attention layer says %v",
				snapshot.ErrCorrupt, line, pos, v, c.att.Examine(line, pos))
		}
	}
	return nil
}
