package snapshot_test

// External test package: the seeds are real artifacts, and the packages
// that write them (core, clickmodel) import snapshot.

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"repro/internal/clickmodel"
	"repro/internal/core"
	"repro/internal/snapshot"
)

// realV2Artifacts returns one small artifact per model: the micro
// model and every registry click model.
func realV2Artifacts(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	add := func(save func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	micro := core.NewModel(core.GeometricAttention{LineWeights: []float64{0.9, 0.6, 0.3}, Decay: 0.8})
	micro.Relevance["find cheap"] = 0.85
	micro.Relevance["flights"] = 0.6
	add(func(b *bytes.Buffer) error { return micro.Save(b) })

	var sessions []clickmodel.Session
	docs := []string{"a", "b", "c", "d"}
	for k := 0; k < 60; k++ {
		sessions = append(sessions, clickmodel.Session{
			Query:  []string{"flights", "hotels"}[k%2],
			Docs:   []string{docs[k%4], docs[(k+1)%4], docs[(k+2)%4]},
			Clicks: []bool{k%2 == 0, k%3 == 0, k%7 == 0},
		})
	}
	c, err := clickmodel.Compile(sessions)
	if err != nil {
		tb.Fatal(err)
	}
	for _, name := range clickmodel.Names() {
		m, err := clickmodel.New(name)
		if err != nil {
			tb.Fatal(err)
		}
		if err := m.FitLog(c); err != nil {
			tb.Fatal(err)
		}
		add(func(b *bytes.Buffer) error { return m.Save(b) })
	}
	return out
}

// FuzzParseV2 holds the v2 container parser to its contract on
// arbitrary bytes: ParseV2 returns an error, or an artifact whose
// sections and typed views lie inside the input and read back exactly
// the little-endian values stored there; VerifySections and the four
// *View accessors never panic, and a view of the wrong kind is an
// error. Seeds are a real artifact of every model and the hostile
// variants internal/mmap's tests build by hand: truncations, single
// flipped bits in the header, the directory and the payloads.
func FuzzParseV2(f *testing.F) {
	for _, art := range realV2Artifacts(f) {
		f.Add(art)
		for _, n := range []int{0, 1, 32, 63, 64, 100, len(art) / 2, len(art) - 1} {
			f.Add(art[:n])
		}
		for _, off := range []int{0, 5, 6, 8, 12, 16, 24, 64, 72, 80, 88, 92, len(art) - 1} {
			b := append([]byte(nil), art...)
			b[off] ^= 0x10
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := snapshot.ParseV2(data)
		if err != nil {
			return
		}
		_ = a.VerifySections() // either verdict is fine; a panic is not

		base := reflect.ValueOf(data).Pointer()
		inside := func(what, tag string, view reflect.Value, elem int) {
			if view.Len() == 0 {
				return
			}
			start := view.Pointer()
			if start < base || start+uintptr(view.Len()*elem) > base+uintptr(len(data)) {
				t.Fatalf("%s %q: [%#x, +%d) lies outside the %d input bytes at %#x", what, tag, start, view.Len()*elem, len(data), base)
			}
		}
		for _, s := range a.Sections {
			inside("section", s.Tag, reflect.ValueOf(s.Data), 1)

			fl, ferr := a.FloatsView(s.Tag)
			i32, ierr := a.Int32sView(s.Tag)
			u32, uerr := a.Uint32sView(s.Tag)
			by, berr := a.BytesView(s.Tag)
			errs := map[uint32]error{snapshot.V2Float64: ferr, snapshot.V2Int32: ierr, snapshot.V2Uint32: uerr, snapshot.V2Bytes: berr}
			for kind, err := range errs {
				if (err == nil) != (kind == s.Kind) {
					t.Fatalf("section %q of kind %d: view of kind %d returned error %v", s.Tag, s.Kind, kind, err)
				}
			}
			switch s.Kind {
			case snapshot.V2Float64:
				inside("floats view", s.Tag, reflect.ValueOf(fl), 8)
				if len(fl)*8 != len(s.Data) {
					t.Fatalf("section %q: %d floats over %d bytes", s.Tag, len(fl), len(s.Data))
				}
				for i, v := range fl {
					if want := binary.LittleEndian.Uint64(s.Data[8*i:]); math.Float64bits(v) != want {
						t.Fatalf("section %q float %d: bits %#x, stored %#x", s.Tag, i, math.Float64bits(v), want)
					}
				}
			case snapshot.V2Int32:
				inside("int32 view", s.Tag, reflect.ValueOf(i32), 4)
				if len(i32)*4 != len(s.Data) {
					t.Fatalf("section %q: %d int32s over %d bytes", s.Tag, len(i32), len(s.Data))
				}
				for i, v := range i32 {
					if want := int32(binary.LittleEndian.Uint32(s.Data[4*i:])); v != want {
						t.Fatalf("section %q int32 %d: %d, stored %d", s.Tag, i, v, want)
					}
				}
			case snapshot.V2Uint32:
				inside("uint32 view", s.Tag, reflect.ValueOf(u32), 4)
				if len(u32)*4 != len(s.Data) {
					t.Fatalf("section %q: %d uint32s over %d bytes", s.Tag, len(u32), len(s.Data))
				}
				for i, v := range u32 {
					if want := binary.LittleEndian.Uint32(s.Data[4*i:]); v != want {
						t.Fatalf("section %q uint32 %d: %d, stored %d", s.Tag, i, v, want)
					}
				}
			case snapshot.V2Bytes:
				inside("bytes view", s.Tag, reflect.ValueOf(by), 1)
				if !bytes.Equal(by, s.Data) {
					t.Fatalf("section %q: bytes view differs from the section", s.Tag)
				}
			}
		}
	})
}
