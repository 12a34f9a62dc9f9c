package clickmodel

// The artifact codec of the macro click models. Every model writes one
// format — v2, the sectioned container of internal/snapshot — from one
// parameter list: its params method (snapshot.go) is the only place the
// model's layout is spelled, and writeArtifact, readArtifact and
// ParamCount all walk that list. Sections, in directory order:
//
//	meta      bytes    the scalars and counts, in list order, in the
//	                   snapshot Append forms (float64 bits, uvarints);
//	                   a triangular table's row count goes here too
//	<dense>   float64  one section per dense array; a triangular table
//	                   (UBM's gamma) is flattened row after row
//	q.*, d.*  —        the query and doc vocabularies of the one pair
//	                   table every per-(query, doc) parameter shares:
//	                   the two term sections of textproc's WriteTerms
//	                   (blob, offs)
//	p.q       int32    pair -> query ID
//	p.d       int32    pair -> doc ID
//	<x>.vals  float64  one value per pair for each per-pair parameter;
//	                   a pair the parameter has no value for holds its
//	                   prior, which is what a miss scores
//	c.vals, n.*        BBM's per-pair counts (writeCounts)
//
// Pairs and both vocabularies are numbered in sorted (query, doc)
// order, so equal parameters write equal bytes.
//
// In memory every per-pair parameter is one value per pair ID over a
// pairTable the model holds (pairDense), a pair the table lacks scoring
// the prior. A load thaws: it copies the artifact's values into a pair
// table and value slices like a fit's and keeps no reference to the
// bytes, so a loaded model scores, refits and saves as a fitted one
// does. Before the model exists, a load refuses a value outside its
// parameter's domain (checkRange), and term offsets, pair IDs or a
// repeated pair that no writer produces (readPairs, pairTableOf).
//
// An artifact an earlier build wrote also carries a probe table and its
// tags for each vocabulary (q.tabl, q.tags, d.tabl, d.tags) and one for
// the pairs (p.tabl). No load reads them, so such an artifact loads as
// it stands and exports without them.

import (
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"strings"

	"repro/internal/snapshot"
	"repro/internal/textproc"
)

// writePairs writes the pair table of keys, which must be sorted and
// distinct: each vocabulary numbers its strings in order of first
// appearance (textproc.WriteTerms), and pair i, keys[i], is its query's
// and its doc's ID at i of p.q and p.d.
func writePairs(w *snapshot.V2Writer, keys []qd) {
	pairQ, pairD := make([]int32, len(keys)), make([]int32, len(keys))
	var qs []string
	var ds textproc.Vocab
	for i, k := range keys {
		if i == 0 || k.q != keys[i-1].q { // sorted: a query's pairs are adjacent
			qs = append(qs, k.q)
		}
		pairQ[i] = int32(len(qs) - 1)
		pairD[i] = ds.ID(k.d)
	}
	textproc.WriteTerms(w, "q", qs)
	textproc.WriteTerms(w, "d", ds.Texts())
	w.Int32s("p.q", pairQ)
	w.Int32s("p.d", pairD)
}

// readPairs reads writePairs' sections back as the keys by pair ID,
// sharing one string per vocabulary (textproc.ReadTerms). Unequal p.q
// and p.d, or a pair naming an ID its vocabulary lacks, is
// snapshot.ErrCorrupt.
func readPairs(a *snapshot.V2Artifact) ([]qd, error) {
	qs, err := textproc.ReadTerms(a, "q")
	if err != nil {
		return nil, err
	}
	ds, err := textproc.ReadTerms(a, "d")
	if err != nil {
		return nil, err
	}
	pairQ, err := a.Int32sView("p.q")
	if err != nil {
		return nil, err
	}
	pairD, err := a.Int32sView("p.d")
	if err != nil {
		return nil, err
	}
	if len(pairD) != len(pairQ) {
		return nil, fmt.Errorf("%w: %d pair queries but %d pair docs", snapshot.ErrCorrupt, len(pairQ), len(pairD))
	}
	keys := make([]qd, len(pairQ))
	for i, q := range pairQ {
		d := pairD[i]
		if uint32(q) >= uint32(len(qs)) || uint32(d) >= uint32(len(ds)) {
			return nil, fmt.Errorf("%w: pair %d references out-of-range vocabulary IDs", snapshot.ErrCorrupt, i)
		}
		keys[i] = qd{qs[q], ds[d]}
	}
	return keys, nil
}

// pairVals copies a per-pair value section, checking that it holds one
// value per pair and that each lies in its domain (checkRange).
func pairVals(a *snapshot.V2Artifact, tag string, n int, prob bool) ([]float64, error) {
	v, err := a.FloatsView(tag)
	if err != nil {
		return nil, err
	}
	if len(v) != n {
		return nil, fmt.Errorf("%w: section %q holds %d values for %d pairs", snapshot.ErrCorrupt, tag, len(v), n)
	}
	if err := checkRange(tag, prob, v...); err != nil {
		return nil, err
	}
	return slices.Clone(v), nil
}

// checkRange refuses, with snapshot.ErrCorrupt, the first of vs outside
// the domain of the parameter it belongs to: [0, 1] for a probability
// (prob), [0, +Inf) for any other float a model stores — a smoothing
// weight or a count. NaN lies in neither.
func checkRange(what string, prob bool, vs ...float64) error {
	hi, domain := math.MaxFloat64, "[0, +Inf)"
	if prob {
		hi, domain = 1, "[0, 1]"
	}
	for _, v := range vs {
		if !(v >= 0 && v <= hi) {
			return fmt.Errorf("%w: %s holds %v, outside %s", snapshot.ErrCorrupt, what, v, domain)
		}
	}
	return nil
}

// --- parameter lists ---

// paramKind is where a parameter lives in the artifact.
type paramKind uint8

const (
	metaFloat paramKind = iota // a float64 in meta
	metaCount                  // a non-negative int in meta
	denseVals                  // a []float64 section
	triVals                    // a [][]float64 whose row i holds i+1 cells: one flat section, the row count in meta
	pairDense                  // a []float64 by pair ID of the model's pairTable: a value section over the artifact's pair table
	bbmCounts                  // BBM's counts, keyed by its own pair IDs
)

// param is one entry of a model's parameter list: what kind it is, its
// section tag, and a pointer to the field it is.
type param struct {
	kind   paramKind
	tag    string
	fitted bool // a metaFloat ParamCount counts; the rest are priors and hyper-parameters
	unit   bool // its values are probabilities (prob)
	f      *float64
	n      *int
	vals   *[]float64   // denseVals; pairDense: the values, by pair ID of
	tab    **pairTable  // the table they are over (bbmCounts: BBM's own),
	prior  *float64     // and what a pair the table lacks scores
	rows   *[][]float64 // triVals
	bbm    *BBM
}

func scalar(f *float64) param       { return param{kind: metaFloat, f: f} }
func fittedScalar(f *float64) param { return param{kind: metaFloat, f: f, fitted: true} }
func count(n *int) param            { return param{kind: metaCount, n: n} }

func dense(tag string, v *[]float64) param { return param{kind: denseVals, tag: tag, vals: v} }

func triangular(tag string, rows *[][]float64) param {
	return param{kind: triVals, tag: tag, rows: rows}
}

// overPairs lists dense per-pair values over the model's pair table.
// Several entries may share one table.
func overPairs(tag string, tab **pairTable, vals *[]float64, prior *float64) param {
	return param{kind: pairDense, tag: tag, tab: tab, vals: vals, prior: prior}
}

// prob marks a float parameter as a probability: a load refuses a value
// of it that is NaN or outside [0, 1]. An unmarked float must be finite
// and non-negative.
func (p param) prob() param {
	p.unit = true
	return p
}

// writeArtifact writes m's v2 artifact from its parameter list: meta,
// the dense sections, the pair table, then the per-pair sections, each
// group in list order.
func writeArtifact(w io.Writer, m Model) error {
	ps := m.params()
	var meta []byte
	for _, p := range ps {
		switch p.kind {
		case metaFloat:
			meta = snapshot.AppendFloat(meta, *p.f)
		case metaCount:
			if *p.n < 0 {
				return fmt.Errorf("clickmodel: %s count %d is negative", m.Name(), *p.n)
			}
			meta = snapshot.AppendUint(meta, uint64(*p.n))
		case triVals:
			meta = snapshot.AppendUint(meta, uint64(len(*p.rows)))
		}
	}
	vw := snapshot.NewV2Writer(m.Name())
	vw.Bytes("meta", meta)

	var keys []qd
	var seen *pairTable // the table whose pairs keys holds already
	for _, p := range ps {
		switch p.kind {
		case denseVals:
			vw.Floats(p.tag, *p.vals)
		case triVals:
			flat := make([]float64, 0, tri(len(*p.rows)))
			for i, row := range *p.rows {
				if len(row) != i+1 {
					return fmt.Errorf("clickmodel: %s triangular row %d has %d cells, want %d", m.Name(), i, len(row), i+1)
				}
				flat = append(flat, row...)
			}
			vw.Floats(p.tag, flat)
		case pairDense, bbmCounts:
			if t := *p.tab; t != nil && t != seen {
				keys, seen = append(keys, t.pairs...), t
			}
		}
	}
	slices.SortFunc(keys, compareQD)
	keys = slices.Compact(keys)
	writePairs(vw, keys)

	for _, p := range ps {
		switch p.kind {
		case pairDense:
			vw.Floats(p.tag, valuesOver(keys, *p.tab, *p.vals, *p.prior))
		case bbmCounts:
			p.bbm.writeCounts(vw, keys)
		}
	}
	_, err := vw.WriteTo(w)
	return err
}

// valuesOver lists vals, by pair ID of tab, over keys: a key tab lacks
// holds prior, which is what it scores.
func valuesOver(keys []qd, tab *pairTable, vals []float64, prior float64) []float64 {
	out := make([]float64, len(keys))
	for i, k := range keys {
		out[i] = prior
		if id, ok := tab.find(k.q, k.d); ok {
			out[i] = vals[id]
		}
	}
	return out
}

// readArtifact thaws a into m through its parameter list: every value
// is copied and checked against its parameter's domain, and the
// per-pair values and BBM's counts are copied over one pair table,
// built from the artifact's keys (readPairs, pairTableOf).
func readArtifact(a *snapshot.V2Artifact, m Model) error {
	if !strings.EqualFold(a.ModelName, m.Name()) {
		return fmt.Errorf("clickmodel: artifact holds a %q model, not %q", a.ModelName, m.Name())
	}
	meta, err := a.BytesView("meta")
	if err != nil {
		return err
	}
	ps := m.params()
	c := snapshot.NewCursor(meta)
	rows := make([]int, len(ps))
	for i, p := range ps {
		switch p.kind {
		case metaFloat:
			*p.f = c.Float()
			if err := checkRange("meta", p.unit, *p.f); err != nil {
				return err
			}
		case metaCount:
			*p.n = c.Int()
		case triVals:
			rows[i] = c.Int()
		}
	}
	if err := c.Err(); err != nil {
		return err
	}
	for i, p := range ps {
		if p.kind != denseVals && p.kind != triVals {
			continue
		}
		v, err := a.FloatsView(p.tag)
		if err != nil {
			return err
		}
		if err := checkRange(p.tag, p.unit, v...); err != nil {
			return err
		}
		v = slices.Clone(v)
		if p.kind == denseVals {
			*p.vals = v
			continue
		}
		n := rows[i]
		if n > len(v) || tri(n) != len(v) {
			return fmt.Errorf("%w: triangular section %q claims %d rows but holds %d cells", snapshot.ErrCorrupt, p.tag, n, len(v))
		}
		// Rows over one backing array, as a fit leaves them.
		*p.rows = make([][]float64, n)
		for r := range *p.rows {
			(*p.rows)[r] = v[tri(r) : tri(r)+r+1 : tri(r)+r+1]
		}
	}

	keys, err := readPairs(a)
	if err != nil {
		return err
	}
	tab, err := pairTableOf(keys)
	if err != nil {
		return err
	}
	for _, p := range ps {
		switch p.kind {
		case pairDense:
			v, err := pairVals(a, p.tag, len(tab.pairs), p.unit)
			if err != nil {
				return err
			}
			*p.tab, *p.vals = tab, v
		case bbmCounts:
			if err := p.bbm.readCounts(a, tab); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- BBM's counts ---

// minGridSize and maxGridSize bound BBM's posterior grid: a grid of
// fewer points has no interior point, and FitLog raises a smaller size
// to its default; a thaw evaluates every pair's mean over GridSize
// points (fillMeans), so a corrupt size must not reach it.
const (
	minGridSize = 3
	maxGridSize = 1 << 16
)

// writeCounts writes BBM's per-pair counts over the pair table keys:
// c.vals holds each pair's clicks; the skip counts are n.vals, the
// dense pairs × cells matrix, when nCell > 0, and otherwise CSR sections
// — n.off (int32, pairs+1: where each pair's cells start), n.cell
// (int32, ascending within a pair) and n.cnt (float64).
func (m *BBM) writeCounts(w *snapshot.V2Writer, keys []qd) {
	clicks := make([]float64, len(keys))
	var skips, cnts []float64
	if m.nCell > 0 {
		skips = make([]float64, len(keys)*m.nCell)
	}
	off, cells := make([]int32, 1, len(keys)+1), []int32(nil)
	for i, k := range keys {
		if id, ok := m.pairs.find(k.q, k.d); ok {
			clicks[i] = m.clicks[id]
			if m.nCell > 0 {
				copy(skips[i*m.nCell:(i+1)*m.nCell], m.nonClick[int(id)*m.nCell:])
			} else if int(id) < len(m.nonClickS) {
				inner := m.nonClickS[id]
				for _, cell := range slices.Sorted(maps.Keys(inner)) {
					cells, cnts = append(cells, cell), append(cnts, inner[cell])
				}
			}
		}
		off = append(off, int32(len(cells)))
	}
	w.Floats("c.vals", clicks)
	if m.nCell > 0 {
		w.Floats("n.vals", skips)
		return
	}
	w.Int32s("n.off", off)
	w.Int32s("n.cell", cells)
	w.Floats("n.cnt", cnts)
}

// readCounts thaws writeCounts' sections over the thawed pair table
// tab, BBM's pair IDs becoming the table's, and stores the posterior
// means they give (fillMeans). Every count must be finite and
// non-negative.
func (m *BBM) readCounts(a *snapshot.V2Artifact, tab *pairTable) error {
	n := len(tab.pairs)
	if m.GridSize < minGridSize || m.GridSize > maxGridSize {
		return fmt.Errorf("%w: BBM grid of %d points", snapshot.ErrCorrupt, m.GridSize)
	}
	clicks, err := pairVals(a, "c.vals", n, false)
	if err != nil {
		return err
	}
	m.pairs = tab
	m.clicks = clicks
	m.nonClick, m.nonClickS = nil, nil
	if m.nCell > 0 {
		if m.nCell != len(m.cellGamma) {
			return fmt.Errorf("%w: BBM skip rows of %d cells over %d gammas", snapshot.ErrCorrupt, m.nCell, len(m.cellGamma))
		}
		skips, err := a.FloatsView("n.vals")
		if err != nil {
			return err
		}
		if len(skips) != n*m.nCell {
			return fmt.Errorf("%w: BBM skip matrix holds %d cells, want %d×%d", snapshot.ErrCorrupt, len(skips), n, m.nCell)
		}
		if err := checkRange("n.vals", false, skips...); err != nil {
			return err
		}
		m.nonClick = slices.Clone(skips)
		m.fillMeans()
		return nil
	}
	off, err := a.Int32sView("n.off")
	if err != nil {
		return err
	}
	cells, err := a.Int32sView("n.cell")
	if err != nil {
		return err
	}
	cnts, err := a.FloatsView("n.cnt")
	if err != nil {
		return err
	}
	if len(off) != n+1 || off[0] != 0 || int(off[n]) != len(cells) || len(cnts) != len(cells) {
		return fmt.Errorf("%w: BBM skip offsets do not cover %d pairs and %d cells", snapshot.ErrCorrupt, n, len(cells))
	}
	if err := checkRange("n.cnt", false, cnts...); err != nil {
		return err
	}
	for p := 0; p < n; p++ {
		if off[p] > off[p+1] {
			return fmt.Errorf("%w: BBM skip offsets decrease at pair %d", snapshot.ErrCorrupt, p)
		}
	}
	m.nonClickS = make([]map[int32]float64, n)
	for p := 0; p < n; p++ {
		if off[p] == off[p+1] {
			continue
		}
		inner := make(map[int32]float64, off[p+1]-off[p])
		for j := off[p]; j < off[p+1]; j++ {
			if uint32(cells[j]) >= uint32(len(m.cellGamma)) {
				return fmt.Errorf("%w: BBM skip cell %d of %d", snapshot.ErrCorrupt, cells[j], len(m.cellGamma))
			}
			inner[cells[j]] = cnts[j]
		}
		m.nonClickS[p] = inner
	}
	m.fillMeans()
	return nil
}
