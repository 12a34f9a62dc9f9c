package clickmodel

import (
	"bytes"
	"encoding/binary"
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
// section CRCs and reaches the decoders. There is one load path, the
// thaw, and whatever the bytes:
//
//   - LoadModel and FromArtifact refuse the same inputs;
//   - an accepted model scores without panicking, and every click
//     probability it answers lies in [0, 1];
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
		if _, err := FromArtifact(a); (err == nil) != (errLoad == nil) {
			t.Fatalf("LoadModel says %v, FromArtifact says %v", errLoad, err)
		}
		if errLoad != nil {
			return
		}

		var buf []float64
		for _, s := range fuzzEval(a) {
			buf = thawed.(InplaceScorer).ClickProbsInto(s, buf)
			for _, probs := range [][]float64{thawed.ClickProbsInto(s, nil), buf} {
				for i, p := range probs {
					if !(p >= 0 && p <= 1) {
						t.Fatalf("an accepted %s answers P(C_%d) = %v on %+v", thawed.Name(), i+1, p, s)
					}
				}
			}
			if e, ok := thawed.(Examiner); ok {
				e.ExaminationProbs(s)
			}
			thawed.SessionLogLikelihood(s)
		}
		var out bytes.Buffer
		if err := thawed.Save(&out); err != nil {
			t.Fatalf("an accepted %s does not export: %v", thawed.Name(), err)
		}
		if _, err := LoadModel(&out); err != nil {
			t.Fatalf("an accepted %s exports an artifact LoadModel refuses: %v", thawed.Name(), err)
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
// first sessions, and a session per query of the artifact's pairs
// (readPairs) over its first docs and one no pair names.
func fuzzEval(a *snapshot.V2Artifact) []Session {
	eval := fuzzLog()[:8]
	keys, err := readPairs(a)
	if err != nil {
		return eval
	}
	byQuery := map[string][]string{}
	var queries []string
	for _, k := range keys {
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
