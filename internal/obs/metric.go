package obs

import (
	"math"
	"slices"
	"strconv"
)

// Kind is what a declared signal is on /metrics.
type Kind uint8

const (
	// KindCounter is monotonic since process start.
	KindCounter Kind = iota
	// KindGauge is an instantaneous reading.
	KindGauge
	// KindHistogram is a distribution: _bucket, _sum and _count series.
	KindHistogram
)

var kindNames = [...]string{KindCounter: "counter", KindGauge: "gauge", KindHistogram: "histogram"}

// Metric declares one signal, once, beside the code that bumps it. The
// /metrics exposition and the /healthz document are both rendered from
// lists of these, so a signal cannot reach one surface and miss the
// other, and nothing copies a value into a struct to print it: Value
// and Hist read the very atomic the hot path bumps.
type Metric struct {
	// Name is the exposition family. Entries that share it are one
	// family and must be adjacent in their list; the first one's Help
	// and Kind are the family's.
	Name string
	Help string
	Kind Kind
	// Block and Key place a counter or gauge on /healthz: member Key of
	// the object Block, or of the document itself when Block is empty.
	// Keys are plain identifiers. Histograms have no place there.
	Block, Key string
	// Labels is this entry's inner label list within its family, e.g.
	// `stage="fold"`; empty for an unlabelled series.
	Labels string
	// Scale converts a reading into exposition units on /metrics (0
	// means 1): 1e-9 turns nanoseconds into seconds, CTRScale micro-CTR
	// into probability. /healthz shows the reading itself.
	Scale float64
	// Exactly one of the three says where the value is: Value reads a
	// counter or a gauge, Hist is a histogram, and Series renders a
	// family whose series set changes at run time (one per model
	// version, say) — no series, no family. Series families are
	// /metrics-only.
	Value  func() float64
	Hist   *Histogram
	Series func() []Series
}

// Series is one labelled series of a family rendered at scrape time:
// Labels is the pre-rendered inner label list (`model="micro",version="3"`),
// Snap the histogram of a KindHistogram family, Value the reading of
// any other.
type Series struct {
	Labels string
	Snap   Snapshot
	Value  float64
}

// List is one subsystem's declarations. Lists concatenate: a server
// renders the lists of everything attached to it as one.
type List []Metric

// AppendProm appends the list's Prometheus text exposition (format
// 0.0.4): per family one HELP and one TYPE line, then its series.
// Cold path: it runs once per scrape, and allocation is fine here.
func (l List) AppendProm(b []byte) []byte {
	for i := 0; i < len(l); {
		j := i + 1
		for j < len(l) && l[j].Name == l[i].Name {
			j++
		}
		b = l[i:j].appendFamily(b)
		i = j
	}
	return b
}

// appendFamily appends one family: the entries of fam share a name.
func (fam List) appendFamily(b []byte) []byte {
	m := &fam[0]
	var dyn []Series
	if m.Series != nil {
		if dyn = m.Series(); len(dyn) == 0 {
			return b
		}
	}
	b = append(b, "# HELP "...)
	b = append(b, m.Name...)
	b = append(b, ' ')
	b = append(b, m.Help...)
	b = append(b, "\n# TYPE "...)
	b = append(b, m.Name...)
	b = append(b, ' ')
	b = append(b, kindNames[m.Kind]...)
	b = append(b, '\n')
	for _, s := range dyn {
		b = m.appendSeries(b, s.Labels, s.Value, &s.Snap)
	}
	for i := range fam {
		switch e := &fam[i]; {
		case e.Hist != nil:
			snap := e.Hist.Snapshot()
			b = e.appendSeries(b, e.Labels, 0, &snap)
		case e.Value != nil:
			b = e.appendSeries(b, e.Labels, e.Value(), nil)
		}
	}
	return b
}

// appendSeries appends one series of m's family: a sample line of v,
// or snap's cumulative buckets, sum and count.
func (m *Metric) appendSeries(b []byte, labels string, v float64, snap *Snapshot) []byte {
	scale := m.Scale
	if scale == 0 {
		scale = 1
	}
	if m.Kind != KindHistogram {
		b = appendKey(b, m.Name, "", labels, "")
		return append(appendNumber(b, m.Kind, v*scale), '\n')
	}
	var cum uint64
	for i, n := range snap.Buckets {
		cum += n
		le := "+Inf"
		if i < NumBuckets-1 {
			le = strconv.FormatFloat(upperBound(i)*scale, 'g', -1, 64)
		}
		b = appendKey(b, m.Name, "_bucket", labels, le)
		b = append(strconv.AppendUint(b, cum, 10), '\n')
	}
	b = appendKey(b, m.Name, "_sum", labels, "")
	b = append(strconv.AppendFloat(b, float64(snap.Sum)*scale, 'g', -1, 64), '\n')
	b = appendKey(b, m.Name, "_count", labels, "")
	return append(strconv.AppendUint(b, snap.Count, 10), '\n')
}

// appendKey appends a series key and the space before its value. le,
// when set, is the bucket bound, the last label.
func appendKey(b []byte, name, suffix, labels, le string) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	if labels != "" || le != "" {
		b = append(b, '{')
		b = append(b, labels...)
		if le != "" {
			if labels != "" {
				b = append(b, ',')
			}
			b = append(b, `le="`...)
			b = append(b, le...)
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	return append(b, ' ')
}

// appendNumber formats a reading for either surface: a counter as an
// integer, a gauge as an integer when it is one (so /healthz decodes
// into Go ints) and in shortest form otherwise.
func appendNumber(b []byte, k Kind, v float64) []byte {
	switch {
	case k == KindCounter:
		return strconv.AppendUint(b, uint64(v), 10)
	case v == math.Trunc(v) && math.Abs(v) < 1<<53:
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// AppendJSON appends the list's /healthz members: `,"key":value` for
// each member at the top level and `,"block":{...}` for each block,
// blocks in the order the list first names them. Every member starts
// with its comma, so the caller opens the document with a member of its
// own and closes it after.
func (l List) AppendJSON(b []byte) []byte {
	var blocks []string
	for i := range l {
		if l[i].Key != "" && !slices.Contains(blocks, l[i].Block) {
			blocks = append(blocks, l[i].Block)
		}
	}
	for _, block := range blocks {
		if block != "" {
			b = append(b, `,"`...)
			b = append(b, block...)
			b = append(b, `":{`...)
		}
		first := true
		for i := range l {
			m := &l[i]
			if m.Key == "" || m.Block != block {
				continue
			}
			if block == "" || !first {
				b = append(b, ',')
			}
			first = false
			b = append(b, '"')
			b = append(b, m.Key...)
			b = append(b, `":`...)
			b = appendNumber(b, m.Kind, m.Value())
		}
		if block != "" {
			b = append(b, '}')
		}
	}
	return b
}

// Read takes one reading of every counter and gauge in the list, keyed
// by its /healthz path: "block.key", or the key alone at the top level.
// How tools and tests read a subsystem's values.
func (l List) Read() map[string]float64 {
	out := make(map[string]float64, len(l))
	for i := range l {
		m := &l[i]
		if m.Key == "" {
			continue
		}
		path := m.Key
		if m.Block != "" {
			path = m.Block + "." + m.Key
		}
		out[path] = m.Value()
	}
	return out
}
