package clickmodel

// v2 (zero-parse) snapshot support for the macro click models that
// serve traffic: PBM and DBN. A v1 artifact stores per-pair parameters
// as a varint stream decoded into map[qd]float64 on every load — O(log)
// work and a private heap copy per process. A v2 artifact stores the
// *serving* form: two frozen vocabularies (queries, docs), a flat
// (query ID, doc ID) pair table with an open-addressed probe index, and
// one dense value array per parameter set, all as raw little-endian
// sections. PBMFromArtifact/DBNFromArtifact return the same *PBM/*DBN a
// fit produces, with the per-pair accessors reading zero-copy views over
// those bytes (typically a read-only file mapping owned by
// internal/mmap) where a fitted model reads its maps: the scoring maths
// of each model exists once. An artifact-backed model does not refit.
//
// Section layout (v2 directory tags):
//
//	meta    bytes    raw-encoded scalars (priors; DBN's gamma)
//	gamma   float64  PBM per-position examination probabilities
//	q.*     —        query vocabulary: the four sections textproc's
//	                 WriteSections/ReadSections own (blob, offs, tabl,
//	                 tags; without tags it predates them and still loads)
//	d.*     —        doc vocabulary, likewise
//	p.q     int32    pair -> query ID
//	p.d     int32    pair -> doc ID
//	p.tabl  int32    open-addressed (qid, did) probe table
//	a.vals  float64  attractiveness per pair (PBM alpha, DBN a)
//	s.vals  float64  DBN satisfaction per pair
//
// A probe-table miss — including one caused by a corrupted table that
// slipped past the CRCs — degrades to the model's prior, exactly the
// behaviour of a map miss; it can never alias two pairs, because every
// hit is confirmed against the pair arrays.

import (
	"bytes"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/snapshot"
	"repro/internal/textproc"
)

// ErrMappedImmutable is returned by the Fit, FitLog and Load methods of
// an artifact-backed model: it is a read-only serving view. Refit a
// fresh model and export a new artifact instead.
var ErrMappedImmutable = fmt.Errorf("clickmodel: mapped models are immutable serving views")

// minPairTable mirrors the vocabulary's minimum probe-table size.
const minPairTable = 16

// pairHash mixes a (query ID, doc ID) pair into the probe-table hash.
// It must be identical on the freeze and lookup sides; nothing else
// depends on it.
func pairHash(qid, did int32) uint64 {
	h := uint64(uint32(qid))*0x9E3779B97F4A7C15 ^ uint64(uint32(did))*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

// frozenPairs is the immutable flat form of one or more map[qd]float64
// parameter sets sharing a key universe: interned query/doc
// vocabularies, pair ID arrays, and a probe table. Values live in
// separate dense arrays (one per parameter set) indexed by pair ID.
type frozenPairs struct {
	qv, dv *textproc.FrozenVocab
	pairQ  []int32
	pairD  []int32
	tab    []int32
	mask   uint64
}

// NumPairs returns the number of interned (query, doc) pairs.
func (p *frozenPairs) NumPairs() int { return len(p.pairQ) }

// find resolves a (query, doc) pair to its dense ID; a miss anywhere
// along the way (unknown query, unknown doc, absent pair) returns
// false and the caller falls back to the prior. Like the vocabulary
// lookups, the probe gives up after one pass over the table, so an
// unvalidated table with no empty bucket ends in a miss, not a spin.
func (p *frozenPairs) find(q, d string) (int32, bool) {
	qid, ok := p.qv.Lookup(q)
	if !ok {
		return 0, false
	}
	did, ok := p.dv.Lookup(d)
	if !ok {
		return 0, false
	}
	for i, left := pairHash(qid, did)&p.mask, len(p.tab); left > 0; i, left = (i+1)&p.mask, left-1 {
		id := p.tab[i]
		if id < 0 {
			return 0, false
		}
		// Bounds-check the probe: unvalidated mappings (trusted local
		// loads skip the O(n) scan) degrade to misses, never panics.
		if uint(id) >= uint(len(p.pairQ)) {
			return 0, false
		}
		if p.pairQ[id] == qid && p.pairD[id] == did {
			return id, true
		}
	}
	return 0, false
}

// validate runs the O(n) per-element checks pairsFromArtifact skips:
// every pair references in-range vocabulary IDs and every probe bucket
// is empty or a valid pair ID, plus the underlying vocabularies' own
// deep checks. Verified load paths call this before install.
func (p *frozenPairs) validate() error {
	if p == nil {
		return nil // a fitted model: no frozen tables to check
	}
	if err := p.qv.Validate(); err != nil {
		return fmt.Errorf("%w: query vocab: %v", snapshot.ErrCorrupt, err)
	}
	if err := p.dv.Validate(); err != nil {
		return fmt.Errorf("%w: doc vocab: %v", snapshot.ErrCorrupt, err)
	}
	n := len(p.pairQ)
	for i := 0; i < n; i++ {
		if int(p.pairQ[i]) >= p.qv.Len() || p.pairQ[i] < 0 || int(p.pairD[i]) >= p.dv.Len() || p.pairD[i] < 0 {
			return fmt.Errorf("%w: pair %d references out-of-range vocabulary IDs", snapshot.ErrCorrupt, i)
		}
	}
	for i, id := range p.tab {
		if id < -1 || int(id) >= n {
			return fmt.Errorf("%w: pair bucket %d holds id %d of %d pairs", snapshot.ErrCorrupt, i, id, n)
		}
	}
	return nil
}

// freezePairs interns the union of the sets' keys (sorted, so identical
// parameters produce identical artifacts) and materialises one dense
// value array per set, filling absent keys with that set's default —
// which preserves scoring semantics exactly, since a map miss returns
// the same default.
func freezePairs(sets []map[qd]float64, defaults []float64) (*frozenPairs, [][]float64) {
	seen := make(map[qd]struct{})
	var keys []qd
	for _, m := range sets {
		for k := range m {
			if _, ok := seen[k]; !ok {
				seen[k] = struct{}{}
				keys = append(keys, k)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].q != keys[j].q {
			return keys[i].q < keys[j].q
		}
		return keys[i].d < keys[j].d
	})

	n := len(keys)
	qv, dv := NewVocab(), NewVocab()
	p := &frozenPairs{pairQ: make([]int32, n), pairD: make([]int32, n)}
	for i, k := range keys {
		p.pairQ[i] = qv.ID(k.q)
		p.pairD[i] = dv.ID(k.d)
	}
	p.qv = textproc.FreezeVocab(qv.strs)
	p.dv = textproc.FreezeVocab(dv.strs)

	size := minPairTable
	for size < 2*n {
		size <<= 1
	}
	p.tab = make([]int32, size)
	for i := range p.tab {
		p.tab[i] = -1
	}
	p.mask = uint64(size - 1)
	for i := 0; i < n; i++ {
		h := pairHash(p.pairQ[i], p.pairD[i])
		for j := h & p.mask; ; j = (j + 1) & p.mask {
			if p.tab[j] < 0 {
				p.tab[j] = int32(i)
				break
			}
		}
	}

	vals := make([][]float64, len(sets))
	for si, m := range sets {
		v := make([]float64, n)
		for i, k := range keys {
			if x, ok := m[k]; ok {
				v[i] = x
			} else {
				v[i] = defaults[si]
			}
		}
		vals[si] = v
	}
	return p, vals
}

// writePairs adds the shared pair sections to a v2 writer.
func writePairs(w *snapshot.V2Writer, p *frozenPairs) {
	p.qv.WriteSections(w, "q")
	p.dv.WriteSections(w, "d")
	w.Int32s("p.q", p.pairQ)
	w.Int32s("p.d", p.pairD)
	w.Int32s("p.tabl", p.tab)
}

// pairsFromArtifact validates and wraps the pair sections.
func pairsFromArtifact(a *snapshot.V2Artifact) (*frozenPairs, error) {
	p := &frozenPairs{}
	var err error
	if p.qv, err = textproc.ReadSections(a, "q"); err != nil {
		return nil, err
	}
	if p.dv, err = textproc.ReadSections(a, "d"); err != nil {
		return nil, err
	}
	if p.pairQ, err = a.Int32sView("p.q"); err != nil {
		return nil, err
	}
	if p.pairD, err = a.Int32sView("p.d"); err != nil {
		return nil, err
	}
	if p.tab, err = a.Int32sView("p.tabl"); err != nil {
		return nil, err
	}
	n := len(p.pairQ)
	if len(p.pairD) != n {
		return nil, fmt.Errorf("%w: %d pair queries but %d pair docs", snapshot.ErrCorrupt, n, len(p.pairD))
	}
	if len(p.tab) < minPairTable || bits.OnesCount(uint(len(p.tab))) != 1 || len(p.tab) < 2*n {
		return nil, fmt.Errorf("%w: pair probe table size %d cannot hold %d pairs", snapshot.ErrCorrupt, len(p.tab), n)
	}
	// Per-element invariants (in-range pair and bucket IDs) are NOT
	// scanned here — mapped loads must stay O(1) in artifact size; see
	// frozenPairs.validate for the deep pass verified loads run.
	p.mask = uint64(len(p.tab) - 1)
	return p, nil
}

// pairVals returns a dense value section and checks it covers every pair.
func pairVals(a *snapshot.V2Artifact, tag string, n int) ([]float64, error) {
	v, err := a.FloatsView(tag)
	if err != nil {
		return nil, err
	}
	if len(v) != n {
		return nil, fmt.Errorf("%w: section %q holds %d values for %d pairs", snapshot.ErrCorrupt, tag, len(v), n)
	}
	return v, nil
}

// pairParam reads one per-pair parameter of a model that is either
// fitted (its exported map holds the values) or artifact-backed (vals
// is a view of the artifact, indexed through the frozen pair table).
// Either way a pair the model never saw takes the prior.
func pairParam(p *frozenPairs, vals []float64, fitted map[qd]float64, q, d string, prior float64) float64 {
	if p != nil {
		if id, ok := p.find(q, d); ok {
			return vals[id]
		}
		return prior
	}
	if v, ok := fitted[qd{q, d}]; ok {
		return v
	}
	return prior
}

// artifactMeta checks the artifact's model name and opens its scalar
// section for decoding.
func artifactMeta(a *snapshot.V2Artifact, model string) (*snapshot.Decoder, error) {
	if !strings.EqualFold(a.ModelName, model) {
		return nil, fmt.Errorf("clickmodel: artifact holds a %q model, not %s", a.ModelName, model)
	}
	meta, err := a.BytesView("meta")
	if err != nil {
		return nil, err
	}
	return snapshot.NewRawDecoder(bytes.NewReader(meta)), nil
}

// --- PBM ---

// SaveV2 writes the PBM as a zero-parse v2 artifact. A fitted model's
// Alpha map is frozen into the flat form; an artifact-backed model
// re-emits the sections it serves, byte for byte.
func (m *PBM) SaveV2(w io.Writer) error {
	p, alpha := m.pairs, m.alphaVals
	if p == nil {
		m.defaults()
		var vals [][]float64
		p, vals = freezePairs([]map[qd]float64{m.Alpha}, []float64{m.PriorAlpha})
		alpha = vals[0]
	}
	var meta bytes.Buffer
	e := snapshot.NewRawEncoder(&meta)
	e.Float(m.PriorAlpha)
	if err := e.Flush(); err != nil {
		return err
	}
	vw := snapshot.NewV2Writer(m.Name())
	vw.Bytes("meta", meta.Bytes())
	vw.Floats("gamma", m.Gamma)
	writePairs(vw, p)
	vw.Floats("a.vals", alpha)
	_, err := vw.WriteTo(w)
	return err
}

// PBMFromArtifact returns a PBM served from a parsed v2 artifact: the
// pair table and the attractiveness values are zero-copy views of the
// artifact bytes, which must outlive the model; Gamma, a handful of
// floats behind an exported field, is copied out of the read-only
// bytes. The model scores and re-exports; Fit, FitLog and Load return
// ErrMappedImmutable, and Alpha stays nil.
func PBMFromArtifact(a *snapshot.V2Artifact) (*PBM, error) {
	d, err := artifactMeta(a, "PBM")
	if err != nil {
		return nil, err
	}
	m := &PBM{PriorAlpha: d.Float()}
	if err := d.Err(); err != nil {
		return nil, err
	}
	gamma, err := a.FloatsView("gamma")
	if err != nil {
		return nil, err
	}
	m.Gamma = append([]float64(nil), gamma...)
	if m.pairs, err = pairsFromArtifact(a); err != nil {
		return nil, err
	}
	if m.alphaVals, err = pairVals(a, "a.vals", m.pairs.NumPairs()); err != nil {
		return nil, err
	}
	return m, nil
}

// ValidateTables runs the deep O(n) structural checks PBMFromArtifact
// defers; verified load paths call it before install. A fitted model
// has no frozen tables and passes.
func (m *PBM) ValidateTables() error { return m.pairs.validate() }

// --- DBN ---

// SaveV2 writes the DBN as a zero-parse v2 artifact (see PBM.SaveV2).
func (m *DBN) SaveV2(w io.Writer) error {
	p, attr, sat := m.pairs, m.attrVals, m.satVals
	if p == nil {
		m.defaults()
		var vals [][]float64
		p, vals = freezePairs([]map[qd]float64{m.AttrA, m.SatS}, []float64{m.PriorA, m.PriorS})
		attr, sat = vals[0], vals[1]
	}
	var meta bytes.Buffer
	e := snapshot.NewRawEncoder(&meta)
	e.Float(m.Gamma)
	e.Float(m.PriorA)
	e.Float(m.PriorS)
	if err := e.Flush(); err != nil {
		return err
	}
	vw := snapshot.NewV2Writer(m.Name())
	vw.Bytes("meta", meta.Bytes())
	writePairs(vw, p)
	vw.Floats("a.vals", attr)
	vw.Floats("s.vals", sat)
	_, err := vw.WriteTo(w)
	return err
}

// DBNFromArtifact returns a DBN served from a parsed v2 artifact (see
// PBMFromArtifact): AttrA and SatS stay nil, the per-pair values are
// views of the artifact bytes.
func DBNFromArtifact(a *snapshot.V2Artifact) (*DBN, error) {
	d, err := artifactMeta(a, "DBN")
	if err != nil {
		return nil, err
	}
	m := &DBN{Gamma: d.Float(), PriorA: d.Float(), PriorS: d.Float()}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if m.pairs, err = pairsFromArtifact(a); err != nil {
		return nil, err
	}
	n := m.pairs.NumPairs()
	if m.attrVals, err = pairVals(a, "a.vals", n); err != nil {
		return nil, err
	}
	if m.satVals, err = pairVals(a, "s.vals", n); err != nil {
		return nil, err
	}
	return m, nil
}

// ValidateTables runs the deep O(n) structural checks DBNFromArtifact
// defers (see PBM.ValidateTables).
func (m *DBN) ValidateTables() error { return m.pairs.validate() }

// --- dispatch ---

// SaveV2Model writes a v2 artifact for any model with zero-parse
// support (PBM and DBN, fitted or artifact-backed); other models
// return an error naming the v1 fallback.
func SaveV2Model(w io.Writer, m Model) error {
	if sv, ok := m.(interface{ SaveV2(io.Writer) error }); ok {
		return sv.SaveV2(w)
	}
	return fmt.Errorf("clickmodel: model %q has no v2 (zero-parse) codec; use the v1 snapshot format", m.Name())
}

// MappedFromArtifact constructs the model named in a parsed v2
// artifact, served from the artifact's bytes.
func MappedFromArtifact(a *snapshot.V2Artifact) (Model, error) {
	switch strings.ToUpper(a.ModelName) {
	case "PBM":
		return PBMFromArtifact(a)
	case "DBN":
		return DBNFromArtifact(a)
	}
	return nil, fmt.Errorf("clickmodel: artifact model %q has no v2 (zero-parse) support", a.ModelName)
}
