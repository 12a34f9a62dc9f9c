package clickmodel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/snapshot"
)

// fuzzLog is the log the seed artifacts are fitted on, and the first
// sessions every accepted model is scored on.
func fuzzLog() []Session { return synthParityLog(7, 120) }

// FuzzClickModelArtifact patches one section of a click-model artifact
// — overwrites, truncates or inserts bytes at an offset — and reseals
// the result through snapshot.NewV2Writer, so the patch passes the
// section CRCs and reaches the decoders. Whatever the bytes:
//
//   - LoadModel, and FromArtifact followed by ValidateTables, either
//     refuse or return a model that scores without panicking;
//   - they refuse the same inputs, and a PBM or DBN served from the
//     artifact answers as the model LoadModel thawed, bit for bit;
//   - an accepted model's export loads.
//
// The seeds are every registry model's export; an input whose artifact
// does not parse is skipped.
func FuzzClickModelArtifact(f *testing.F) {
	c, err := Compile(fuzzLog())
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range Names() {
		m, err := Train(name, 3, c, nil)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint8(0), uint8(0), uint32(0), []byte(nil))
	}
	f.Fuzz(func(t *testing.T, art []byte, section, op uint8, off uint32, patch []byte) {
		orig, err := snapshot.ParseV2(art)
		if err != nil || len(orig.Sections) == 0 {
			return
		}
		data, err := patchSection(orig, int(section)%len(orig.Sections), op, off, patch)
		if err != nil {
			t.Fatalf("resealing: %v", err)
		}

		thawed, errLoad := LoadModel(bytes.NewReader(data))
		a, err := snapshot.ParseV2(data)
		if err != nil {
			t.Fatalf("the resealed artifact does not parse: %v", err)
		}
		served, views, errServe := FromArtifact(a)
		if errServe == nil {
			if v, ok := served.(interface{ ValidateTables() error }); ok {
				errServe = v.ValidateTables()
			}
		}
		if (errLoad == nil) != (errServe == nil) {
			t.Fatalf("LoadModel says %v, FromArtifact and ValidateTables say %v", errLoad, errServe)
		}
		if errLoad != nil {
			return
		}

		eval := fuzzEval(a)
		thawedAnswers := answerBits(thawed, eval)
		if servedAnswers := answerBits(served, eval); views && servedAnswers != thawedAnswers {
			t.Fatalf("%s served from the artifact answers\n%s\nthe thawed model\n%s", served.Name(), servedAnswers, thawedAnswers)
		}
		for _, m := range []Model{thawed, served} {
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatalf("an accepted %s does not export: %v", m.Name(), err)
			}
			if _, err := LoadModel(&buf); err != nil {
				t.Fatalf("an accepted %s exports an artifact LoadModel refuses: %v", m.Name(), err)
			}
		}
	})
}

// patchSection re-emits a parsed artifact with section i's payload
// patched by op (mod 3): 0 overwrites the bytes at off with patch,
// extending the payload where patch runs past its end; 1 truncates the
// payload at off; 2 inserts patch at off. off is taken modulo the
// payload's length plus one. A typed section keeps whole elements: the
// patched bytes are cut to a multiple of the element size.
func patchSection(orig *snapshot.V2Artifact, i int, op uint8, off uint32, patch []byte) ([]byte, error) {
	w := snapshot.NewV2Writer(orig.ModelName)
	for j, s := range orig.Sections {
		b := s.Data
		if j == i {
			at := int(off % uint32(len(b)+1))
			switch op % 3 {
			case 0:
				b = append(slices.Clone(b[:at]), patch...)
				if end := at + len(patch); end < len(s.Data) {
					b = append(b, s.Data[end:]...)
				}
			case 1:
				b = b[:at]
			case 2:
				b = slices.Concat(b[:at], patch, b[at:])
			}
		}
		switch s.Kind {
		case snapshot.V2Float64:
			v := make([]float64, len(b)/8)
			for k := range v {
				v[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*k:]))
			}
			w.Floats(s.Tag, v)
		case snapshot.V2Int32:
			v := make([]int32, len(b)/4)
			for k := range v {
				v[k] = int32(binary.LittleEndian.Uint32(b[4*k:]))
			}
			w.Int32s(s.Tag, v)
		case snapshot.V2Uint32:
			v := make([]uint32, len(b)/4)
			for k := range v {
				v[k] = binary.LittleEndian.Uint32(b[4*k:])
			}
			w.Uint32s(s.Tag, v)
		default:
			w.Bytes(s.Tag, b)
		}
	}
	var out bytes.Buffer
	if _, err := w.WriteTo(&out); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// fuzzEval is what an accepted model is scored on: the seed log's
// first sessions, and a session per query of the artifact's (validated)
// pair table over its first docs and one the table lacks.
func fuzzEval(a *snapshot.V2Artifact) []Session {
	eval := fuzzLog()[:8]
	tab, err := pairsFromArtifact(a)
	if err != nil || tab.validate() != nil {
		return eval
	}
	byQuery := map[string][]string{}
	var queries []string
	for _, k := range tab.keys() {
		if _, ok := byQuery[k.q]; !ok {
			queries = append(queries, k.q)
		}
		if len(byQuery[k.q]) < 6 {
			byQuery[k.q] = append(byQuery[k.q], k.d)
		}
	}
	for _, q := range queries[:min(len(queries), 8)] {
		docs := append(byQuery[q], "a doc no pair names")
		clicks := make([]bool, len(docs))
		clicks[len(docs)/2] = true
		eval = append(eval, Session{Query: q, Docs: docs, Clicks: clicks})
	}
	return eval
}

// answerBits lists what m answers on eval, by bits: ClickProbsInto, the
// in-place ClickProbsInto, ExaminationProbs for an Examiner, and
// SessionLogLikelihood.
func answerBits(m Model, eval []Session) string {
	var b bytes.Buffer
	put := func(fs ...float64) {
		for _, f := range fs {
			fmt.Fprintf(&b, "%016x ", math.Float64bits(f))
		}
		b.WriteByte('|')
	}
	var buf []float64
	for _, s := range eval {
		put(m.ClickProbsInto(s, nil)...)
		buf = m.(InplaceScorer).ClickProbsInto(s, buf)
		put(buf...)
		if e, ok := m.(Examiner); ok {
			put(e.ExaminationProbs(s)...)
		}
		put(m.SessionLogLikelihood(s))
		b.WriteByte('\n')
	}
	return b.String()
}
