package clickmodel

// Snapshot codecs: every built-in model serializes its fitted
// parameters to the self-describing binary artifact format of
// internal/snapshot (magic + version + model name header, dense
// parameter arrays, CRC trailer) and restores to a ready model. This
// is the train-offline half of the serving split — fit on a log,
// Save, ship the artifact, and a serving process Loads it without
// re-estimating anything (see internal/engine.LoadSnapshot and
// cmd/microserve).
//
// Per-pair parameter maps are encoded as a query vocabulary plus
// (query ID, doc) pair table plus one dense value array, mirroring the
// compiled-log layout, so an artifact costs one string per distinct
// query rather than one per impression pair.

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/snapshot"
)

// Snapshotter is the persistence half of the model contract: a model
// whose fitted parameters round-trip through a binary artifact. Save
// writes a complete self-describing artifact (header + parameters +
// checksum); Load restores the receiver from one, failing on foreign
// model names, corrupt bytes, or artifacts from a different format
// version. Every built-in model implements it.
type Snapshotter interface {
	Save(w io.Writer) error
	Load(r io.Reader) error
}

// snapshotCodec is the internal payload half of Snapshotter: encode or
// decode just the parameter payload against an already-open artifact.
// LoadModel dispatches on the artifact header and needs a way to
// decode into a freshly constructed registry model without re-reading
// the header.
type snapshotCodec interface {
	Model
	encodeSnapshot(e *snapshot.Encoder)
	decodeSnapshot(d *snapshot.Decoder)
}

// saveSnapshot writes a complete artifact for one model.
func saveSnapshot(w io.Writer, m snapshotCodec) error {
	e := snapshot.NewEncoder(w, m.Name())
	m.encodeSnapshot(e)
	return e.Close()
}

// loadSnapshot restores m from a complete artifact, requiring the
// recorded model name to match the receiver.
func loadSnapshot(r io.Reader, m snapshotCodec) error {
	d, err := snapshot.NewDecoder(r)
	if err != nil {
		return err
	}
	if !strings.EqualFold(d.ModelName(), m.Name()) {
		return fmt.Errorf("clickmodel: artifact holds a %q model, not %q", d.ModelName(), m.Name())
	}
	m.decodeSnapshot(d)
	return d.Close()
}

// LoadModel reads any click-model artifact from r, constructing the
// model named in the header through the registry. Custom registered
// models must be built-in codec implementations to be loadable.
func LoadModel(r io.Reader) (Model, error) {
	d, err := snapshot.NewDecoder(r)
	if err != nil {
		return nil, err
	}
	m, err := Decode(d)
	if err != nil {
		return nil, err
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

// Decode constructs the model named in an already-open artifact and
// decodes its payload. The caller owns the decoder and must Close it
// (verifying the checksum) before trusting the result; LoadModel does
// both.
func Decode(d *snapshot.Decoder) (Model, error) {
	m, err := New(d.ModelName())
	if err != nil {
		return nil, err
	}
	sc, ok := m.(snapshotCodec)
	if !ok {
		return nil, fmt.Errorf("clickmodel: model %q does not support snapshot decoding", d.ModelName())
	}
	sc.decodeSnapshot(d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// --- per-pair parameter maps ---

// encodePairParams writes a map[qd]float64 as query vocab + pair table
// + dense value array, in sorted (query, doc) order so identical
// parameters produce identical artifacts.
func encodePairParams(e *snapshot.Encoder, m map[qd]float64) {
	keys := make([]qd, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].q != keys[j].q {
			return keys[i].q < keys[j].q
		}
		return keys[i].d < keys[j].d
	})

	// Query vocabulary in first-appearance (sorted) order.
	qids := make(map[string]int, len(keys))
	queries := make([]string, 0, len(keys))
	for _, k := range keys {
		if _, ok := qids[k.q]; !ok {
			qids[k.q] = len(queries)
			queries = append(queries, k.q)
		}
	}
	e.Int(len(queries))
	for _, q := range queries {
		e.String(q)
	}
	e.Int(len(keys))
	for _, k := range keys {
		e.Uint(uint64(qids[k.q]))
		e.String(k.d)
	}
	for _, k := range keys {
		e.Float(m[k])
	}
}

// decodePairParams reads the encodePairParams layout back into a map.
// Count-prefixed storage grows incrementally (with early-out on read
// errors), so a corrupt count cannot pre-allocate gigabytes or spin
// through millions of no-op reads before the damage is detected.
func decodePairParams(d *snapshot.Decoder) map[qd]float64 {
	nq := d.Int()
	queries := make([]string, 0, min(nq, 4096))
	for i := 0; i < nq; i++ {
		queries = append(queries, d.String())
		if d.Err() != nil {
			return nil
		}
	}
	n := d.Int()
	keys := make([]qd, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		qi := d.Uint()
		doc := d.String()
		if d.Err() != nil {
			return nil
		}
		if qi >= uint64(nq) {
			d.Failf("pair %d references query %d of %d", i, qi, nq)
			return nil
		}
		keys = append(keys, qd{queries[qi], doc})
	}
	out := make(map[qd]float64, min(n, 4096))
	for i := range keys {
		out[keys[i]] = d.Float()
		if d.Err() != nil {
			return nil
		}
	}
	return out
}

// --- PBM ---

// Save implements Snapshotter. A fitted model writes the v1 artifact;
// an artifact-backed one re-emits the v2 sections it serves, so a
// replica syncs the same format it maps.
func (m *PBM) Save(w io.Writer) error {
	if m.pairs != nil {
		return m.SaveV2(w)
	}
	return saveSnapshot(w, m)
}

// Load implements Snapshotter; an artifact-backed model refuses.
func (m *PBM) Load(r io.Reader) error {
	if m.pairs != nil {
		return ErrMappedImmutable
	}
	return loadSnapshot(r, m)
}

func (m *PBM) encodeSnapshot(e *snapshot.Encoder) {
	e.Floats(m.Gamma)
	encodePairParams(e, m.Alpha)
	e.Float(m.PriorAlpha)
	e.Int(m.Iterations)
}

func (m *PBM) decodeSnapshot(d *snapshot.Decoder) {
	m.Gamma = d.Floats()
	m.Alpha = decodePairParams(d)
	m.PriorAlpha = d.Float()
	m.Iterations = d.Int()
}

// --- Cascade ---

// Save implements Snapshotter.
func (m *Cascade) Save(w io.Writer) error { return saveSnapshot(w, m) }

// Load implements Snapshotter.
func (m *Cascade) Load(r io.Reader) error { return loadSnapshot(r, m) }

func (m *Cascade) encodeSnapshot(e *snapshot.Encoder) {
	encodePairParams(e, m.Alpha)
	e.Float(m.PriorAlpha)
	e.Float(m.LaplaceA)
	e.Float(m.LaplaceB)
}

func (m *Cascade) decodeSnapshot(d *snapshot.Decoder) {
	m.Alpha = decodePairParams(d)
	m.PriorAlpha = d.Float()
	m.LaplaceA = d.Float()
	m.LaplaceB = d.Float()
}

// --- DCM ---

// Save implements Snapshotter.
func (m *DCM) Save(w io.Writer) error { return saveSnapshot(w, m) }

// Load implements Snapshotter.
func (m *DCM) Load(r io.Reader) error { return loadSnapshot(r, m) }

func (m *DCM) encodeSnapshot(e *snapshot.Encoder) {
	encodePairParams(e, m.Alpha)
	e.Floats(m.Lambda)
	e.Float(m.PriorAlpha)
	e.Float(m.LaplaceA)
	e.Float(m.LaplaceB)
}

func (m *DCM) decodeSnapshot(d *snapshot.Decoder) {
	m.Alpha = decodePairParams(d)
	m.Lambda = d.Floats()
	m.PriorAlpha = d.Float()
	m.LaplaceA = d.Float()
	m.LaplaceB = d.Float()
}

// --- UBM ---

// Save implements Snapshotter.
func (m *UBM) Save(w io.Writer) error { return saveSnapshot(w, m) }

// Load implements Snapshotter.
func (m *UBM) Load(r io.Reader) error { return loadSnapshot(r, m) }

// encodeTriangular flattens a triangular table (row i has i+1 cells)
// into one dense array. Non-triangular shapes (hand-edited tables)
// fail the encode, so Save errors instead of emitting an artifact the
// decoder would reject later.
func encodeTriangular(e *snapshot.Encoder, rows [][]float64) {
	e.Int(len(rows))
	flat := make([]float64, 0, tri(len(rows)))
	for i, row := range rows {
		if len(row) != i+1 {
			e.Failf("triangular row %d has %d cells, want %d", i, len(row), i+1)
			return
		}
		flat = append(flat, row...)
	}
	e.Floats(flat)
}

// decodeTriangular restores the encodeTriangular layout, re-slicing
// rows over one backing array as the fits do.
func decodeTriangular(d *snapshot.Decoder) [][]float64 {
	n := d.Int()
	flat := d.Floats()
	if d.Err() != nil {
		return nil
	}
	if len(flat) != tri(n) {
		if len(flat) == 0 && n == 0 {
			return nil
		}
		d.Failf("triangular table claims %d rows but holds %d cells", n, len(flat))
		return nil
	}
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = flat[tri(i) : tri(i)+i+1 : tri(i)+i+1]
	}
	return rows
}

func (m *UBM) encodeSnapshot(e *snapshot.Encoder) {
	encodeTriangular(e, m.Gamma)
	encodePairParams(e, m.Alpha)
	e.Float(m.PriorAlpha)
	e.Int(m.Iterations)
}

func (m *UBM) decodeSnapshot(d *snapshot.Decoder) {
	m.Gamma = decodeTriangular(d)
	m.Alpha = decodePairParams(d)
	m.PriorAlpha = d.Float()
	m.Iterations = d.Int()
}

// --- BBM ---

// Save implements Snapshotter. A BBM artifact carries the fitted UBM
// browsing layer plus the compact relevance sufficient statistics
// (click counts and per-gamma-cell skip counts), so posterior means
// are recomputable on load without the original log.
func (m *BBM) Save(w io.Writer) error { return saveSnapshot(w, m) }

// Load implements Snapshotter.
func (m *BBM) Load(r io.Reader) error { return loadSnapshot(r, m) }

func (m *BBM) encodeSnapshot(e *snapshot.Encoder) {
	e.Int(m.GridSize)
	browse := m.Browse
	if browse == nil {
		browse = NewUBM()
	}
	browse.encodeSnapshot(e)

	// Interned queries, then pairs as (query ID, doc) in pair-ID order.
	nq := 0
	if m.queries != nil {
		nq = m.queries.Len()
	}
	e.Int(nq)
	for i := 0; i < nq; i++ {
		e.String(m.queries.String(int32(i)))
	}
	inv := make([]pairKey, len(m.pairIDs))
	for k, id := range m.pairIDs {
		inv[id] = k
	}
	e.Int(len(inv))
	for _, k := range inv {
		e.Uint(uint64(k.q))
		e.String(k.d)
	}

	e.Floats(m.clicks)
	e.Floats(m.cellGamma)
	e.Bool(m.nonClick != nil)
	if m.nonClick != nil {
		e.Int(m.nCell)
		e.Floats(m.nonClick)
	} else {
		e.Int(len(m.nonClickS))
		for _, inner := range m.nonClickS {
			// Cells sorted for deterministic artifacts.
			cells := make([]int32, 0, len(inner))
			for c := range inner {
				cells = append(cells, c)
			}
			sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })
			e.Int(len(cells))
			for _, c := range cells {
				e.Uint(uint64(c))
				e.Float(inner[c])
			}
		}
	}
}

func (m *BBM) decodeSnapshot(d *snapshot.Decoder) {
	m.GridSize = d.Int()
	m.Browse = NewUBM()
	m.Browse.decodeSnapshot(d)

	nq := d.Int()
	m.queries = NewVocab()
	for i := 0; i < nq; i++ {
		m.queries.ID(d.String()) // IDs are assigned in encode order
		if d.Err() != nil {
			return
		}
	}
	nPair := d.Int()
	if d.Err() != nil {
		return
	}
	m.pairIDs = make(map[pairKey]int32, min(nPair, 4096))
	for i := 0; i < nPair; i++ {
		qid := d.Uint()
		doc := d.String()
		if d.Err() != nil {
			return
		}
		if qid >= uint64(nq) {
			d.Failf("BBM pair %d references query %d of %d", i, qid, nq)
			return
		}
		m.pairIDs[pairKey{int32(qid), doc}] = int32(i)
	}

	m.clicks = d.Floats()
	m.cellGamma = d.Floats()
	if d.Bool() {
		m.nCell = d.Int()
		m.nonClick = d.Floats()
		m.nonClickS = nil
		if d.Err() == nil && m.nCell > 0 && len(m.nonClick) != nPair*m.nCell {
			d.Failf("BBM skip matrix holds %d cells, want %d×%d", len(m.nonClick), nPair, m.nCell)
		}
	} else {
		n := d.Int()
		if d.Err() != nil {
			return
		}
		if n != nPair {
			d.Failf("BBM sparse skip counts cover %d pairs, want %d", n, nPair)
			return
		}
		m.nCell = 0
		m.nonClick = nil
		// n was verified against nPair, whose entries were each read off
		// the artifact above, so this length is trusted.
		m.nonClickS = make([]map[int32]float64, n)
		for p := 0; p < n; p++ {
			k := d.Int()
			if d.Err() != nil {
				return
			}
			if k == 0 {
				continue
			}
			inner := make(map[int32]float64, min(k, 4096))
			for j := 0; j < k; j++ {
				cell := d.Uint()
				inner[int32(cell)] = d.Float()
				if d.Err() != nil {
					return
				}
			}
			m.nonClickS[p] = inner
		}
	}
}

// --- CCM ---

// Save implements Snapshotter.
func (m *CCM) Save(w io.Writer) error { return saveSnapshot(w, m) }

// Load implements Snapshotter.
func (m *CCM) Load(r io.Reader) error { return loadSnapshot(r, m) }

func (m *CCM) encodeSnapshot(e *snapshot.Encoder) {
	encodePairParams(e, m.Rel)
	e.Float(m.Alpha1)
	e.Float(m.Alpha2)
	e.Float(m.Alpha3)
	e.Float(m.PriorR)
	e.Int(m.Iterations)
}

func (m *CCM) decodeSnapshot(d *snapshot.Decoder) {
	m.Rel = decodePairParams(d)
	m.Alpha1 = d.Float()
	m.Alpha2 = d.Float()
	m.Alpha3 = d.Float()
	m.PriorR = d.Float()
	m.Iterations = d.Int()
}

// --- DBN ---

// Save implements Snapshotter (see PBM.Save for the two forms).
func (m *DBN) Save(w io.Writer) error {
	if m.pairs != nil {
		return m.SaveV2(w)
	}
	return saveSnapshot(w, m)
}

// Load implements Snapshotter; an artifact-backed model refuses.
func (m *DBN) Load(r io.Reader) error {
	if m.pairs != nil {
		return ErrMappedImmutable
	}
	return loadSnapshot(r, m)
}

func (m *DBN) encodeSnapshot(e *snapshot.Encoder) {
	encodePairParams(e, m.AttrA)
	encodePairParams(e, m.SatS)
	e.Float(m.Gamma)
	e.Float(m.PriorA)
	e.Float(m.PriorS)
	e.Int(m.Iterations)
}

func (m *DBN) decodeSnapshot(d *snapshot.Decoder) {
	m.AttrA = decodePairParams(d)
	m.SatS = decodePairParams(d)
	m.Gamma = d.Float()
	m.PriorA = d.Float()
	m.PriorS = d.Float()
	m.Iterations = d.Int()
}

// --- SDBN ---

// Save implements Snapshotter.
func (m *SDBN) Save(w io.Writer) error { return saveSnapshot(w, m) }

// Load implements Snapshotter.
func (m *SDBN) Load(r io.Reader) error { return loadSnapshot(r, m) }

func (m *SDBN) encodeSnapshot(e *snapshot.Encoder) {
	encodePairParams(e, m.AttrA)
	encodePairParams(e, m.SatS)
	e.Float(m.PriorA)
	e.Float(m.PriorS)
	e.Float(m.LaplaceA)
	e.Float(m.LaplaceB)
}

func (m *SDBN) decodeSnapshot(d *snapshot.Decoder) {
	m.AttrA = decodePairParams(d)
	m.SatS = decodePairParams(d)
	m.PriorA = d.Float()
	m.PriorS = d.Float()
	m.LaplaceA = d.Float()
	m.LaplaceB = d.Float()
}

// --- GCM ---

// Save implements Snapshotter.
func (m *GCM) Save(w io.Writer) error { return saveSnapshot(w, m) }

// Load implements Snapshotter.
func (m *GCM) Load(r io.Reader) error { return loadSnapshot(r, m) }

func (m *GCM) encodeSnapshot(e *snapshot.Encoder) {
	encodePairParams(e, m.Rel)
	e.Floats(m.LambdaSkip)
	e.Floats(m.LambdaClick)
	e.Float(m.PriorR)
	e.Int(m.Iterations)
}

func (m *GCM) decodeSnapshot(d *snapshot.Decoder) {
	m.Rel = decodePairParams(d)
	m.LambdaSkip = d.Floats()
	m.LambdaClick = d.Floats()
	m.PriorR = d.Float()
	m.Iterations = d.Int()
}

// --- SUM ---

// Save implements Snapshotter.
func (m *SUM) Save(w io.Writer) error { return saveSnapshot(w, m) }

// Load implements Snapshotter.
func (m *SUM) Load(r io.Reader) error { return loadSnapshot(r, m) }

func (m *SUM) encodeSnapshot(e *snapshot.Encoder) {
	encodePairParams(e, m.Utility)
	e.Floats(m.baseCTR)
	e.Float(m.PriorU)
	e.Int(m.Iterations)
}

func (m *SUM) decodeSnapshot(d *snapshot.Decoder) {
	m.Utility = decodePairParams(d)
	m.baseCTR = d.Floats()
	m.PriorU = d.Float()
	m.Iterations = d.Int()
}

// Compile-time checks: every registry model round-trips.
var (
	_ Snapshotter = (*PBM)(nil)
	_ Snapshotter = (*Cascade)(nil)
	_ Snapshotter = (*DCM)(nil)
	_ Snapshotter = (*UBM)(nil)
	_ Snapshotter = (*BBM)(nil)
	_ Snapshotter = (*CCM)(nil)
	_ Snapshotter = (*DBN)(nil)
	_ Snapshotter = (*SDBN)(nil)
	_ Snapshotter = (*GCM)(nil)
	_ Snapshotter = (*SUM)(nil)
)

// ParamCount reports the number of fitted parameters a model holds —
// the engine's Models() metadata. Models outside the built-in set may
// implement interface{ NumParams() int }; others report 0.
func ParamCount(m Model) int {
	switch t := m.(type) {
	case *PBM:
		return len(t.Gamma) + len(t.Alpha) + len(t.alphaVals)
	case *Cascade:
		return len(t.Alpha)
	case *DCM:
		return len(t.Alpha) + len(t.Lambda)
	case *UBM:
		return len(t.Alpha) + tri(len(t.Gamma))
	case *BBM:
		n := len(t.clicks) + len(t.cellGamma)
		if t.Browse != nil {
			n += len(t.Browse.Alpha) + tri(len(t.Browse.Gamma))
		}
		return n
	case *CCM:
		return len(t.Rel) + 3
	case *DBN:
		return len(t.AttrA) + len(t.SatS) + len(t.attrVals) + len(t.satVals) + 1
	case *SDBN:
		return len(t.AttrA) + len(t.SatS)
	case *GCM:
		return len(t.Rel) + len(t.LambdaSkip) + len(t.LambdaClick)
	case *SUM:
		return len(t.Utility) + len(t.baseCTR)
	case interface{ NumParams() int }:
		return t.NumParams()
	}
	return 0
}
