package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/clickmodel"
	"repro/internal/snapshot"
)

// v1Fixtures is testdata/parent_0c75e9e: the v1 artifacts the last
// commit with a v1 writer wrote — the micro model, every registry click
// model, and a BBM deep enough for sparse skip counts — and what that
// commit's engine answered from them, by bits. generate_test.go beside
// them is the program that wrote them.
const v1Fixtures = "testdata/parent_0c75e9e"

// v1FixtureNames lists the fixtures: one per file, named as installed.
func v1FixtureNames() []string {
	return append([]string{NameMicro, "bbm_sparse"}, clickmodel.Names()...)
}

type v1Golden struct {
	Micro []struct {
		Lines      []string
		MaxN       int `json:"max_n"`
		CTR, Score string
	}
	Click map[string][]struct {
		Query string
		Docs  []string
		Probs []string
	}
}

func readV1Golden(t testing.TB) *v1Golden {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(v1Fixtures, "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g v1Golden
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	if len(g.Micro) == 0 || len(g.Click) != len(v1FixtureNames())-1 {
		t.Fatalf("golden file holds %d micro inputs and %d click models", len(g.Micro), len(g.Click))
	}
	return &g
}

// requests returns a fixture's golden inputs, the model left unset.
func (g *v1Golden) requests(fixture string) []Request {
	var out []Request
	if fixture == NameMicro {
		for _, m := range g.Micro {
			out = append(out, Request{Lines: m.Lines, MaxN: m.MaxN})
		}
		return out
	}
	for _, c := range g.Click[fixture] {
		out = append(out, Request{Session: &clickmodel.Session{Query: c.Query, Docs: c.Docs, Clicks: make([]bool, len(c.Docs))}})
	}
	return out
}

func bitsHex(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// check scores every golden input of a fixture installed on e under its
// name and compares the answers to the parent's by bits — but for the
// sparse BBM, whose posterior sums its skip counts in map order, so
// that no build answers it bit for bit twice: it is held to 1e-12.
func (g *v1Golden) check(t *testing.T, e *Engine, fixture string) {
	t.Helper()
	same := func(got float64, want string) bool {
		if fixture != "bbm_sparse" {
			return bitsHex(got) == want
		}
		var bits uint64
		_, err := fmt.Sscanf(want, "%x", &bits)
		return err == nil && math.Abs(got-math.Float64frombits(bits)) <= 1e-12
	}
	for i, req := range g.requests(fixture) {
		req.Model = fixture
		resp, err := e.ScoreCTR(context.Background(), req)
		if err != nil {
			t.Fatalf("%s %d: %v", fixture, i, err)
		}
		if fixture == NameMicro {
			if want := g.Micro[i]; bitsHex(resp.CTR) != want.CTR || bitsHex(resp.Score) != want.Score {
				t.Errorf("micro %d %q: CTR %s score %s, the parent answered %s and %s", i, req.Lines, bitsHex(resp.CTR), bitsHex(resp.Score), want.CTR, want.Score)
			}
			continue
		}
		want := g.Click[fixture][i].Probs
		if len(resp.Positions) != len(want) {
			t.Fatalf("%s %d: %d positions, the parent answered %d", fixture, i, len(resp.Positions), len(want))
		}
		for pos, p := range resp.Positions {
			if !same(p, want[pos]) {
				t.Errorf("%s %d position %d: %s, the parent answered %s", fixture, i, pos, bitsHex(p), want[pos])
			}
		}
	}
}

// TestParentV1ArtifactsImportIdentically is the contract of the v1
// importer: every artifact the last v1 writer wrote loads through every
// route — stream, trusted file, verified file — and answers exactly
// what the build that wrote it answered. Exported again it is a v2
// artifact, which loads, answers the same, and exports to itself.
func TestParentV1ArtifactsImportIdentically(t *testing.T) {
	g := readV1Golden(t)
	loaders := []struct {
		name string
		load func(e *Engine, name, path string) (ModelInfo, error)
	}{
		{"stream", func(e *Engine, name, path string) (ModelInfo, error) {
			f, err := os.Open(path)
			if err != nil {
				return ModelInfo{}, err
			}
			defer f.Close()
			return e.LoadSnapshot(name, f)
		}},
		{"file", (*Engine).LoadSnapshotFile},
		{"file verified", (*Engine).LoadSnapshotFileVerified},
	}
	for _, fixture := range v1FixtureNames() {
		for _, l := range loaders {
			t.Run(fixture+"/"+l.name, func(t *testing.T) {
				e := New()
				info, err := l.load(e, fixture, filepath.Join(v1Fixtures, fixture+".mbsn"))
				if err != nil {
					t.Fatalf("loading the parent's v1 artifact: %v", err)
				}
				g.check(t, e, fixture)

				var exported bytes.Buffer
				if err := e.SaveSnapshot(info.Ref(), &exported); err != nil {
					t.Fatalf("export: %v", err)
				}
				if !snapshot.IsV2(exported.Bytes()) {
					t.Fatalf("the export starts %q, not a v2 artifact", exported.Bytes()[:4])
				}
				path := filepath.Join(t.TempDir(), fixture+".mbs2")
				if err := os.WriteFile(path, exported.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				e2 := New()
				if info, err = l.load(e2, fixture, path); err != nil {
					t.Fatalf("loading the export: %v", err)
				}
				g.check(t, e2, fixture)
				var again bytes.Buffer
				if err := e2.SaveSnapshot(info.Ref(), &again); err != nil {
					t.Fatalf("second export: %v", err)
				}
				if !bytes.Equal(again.Bytes(), exported.Bytes()) {
					t.Error("exporting the imported artifact again changed it")
				}
			})
		}
	}
}

// FuzzImportV1 holds the v1 importer to its contract on arbitrary
// bytes: an error, or v2 bytes that load into a model whose export is
// those same bytes and which, loaded back from that export, answers
// every probe as it did (to 1e-12: a sparse BBM sums in map order). It
// never panics, and what an import allocates is bounded by its input: a
// corrupt count fails before anything is sized from it. Seeds are the
// parent's v1 fixtures and their truncations. Each input is also tried
// with its last four bytes replaced by the checksum of the rest, so
// that mutations reach the payload decoders instead of stopping at the
// CRC.
func FuzzImportV1(f *testing.F) {
	for _, fixture := range v1FixtureNames() {
		data, err := os.ReadFile(filepath.Join(v1Fixtures, fixture+".mbsn"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		for _, n := range []int{4, 12, 40, len(data) / 2, len(data) - 5, len(data) - 1} {
			f.Add(data[:n])
		}
	}
	probes := []Request{
		{Lines: []string{"Acme Air", "Find cheap flights to Rome", "terms apply"}, MaxN: 3},
		{Lines: []string{"wearhouse outlet visit us"}, MaxN: 1},
		{Session: &clickmodel.Session{Query: "serp page 1", Docs: []string{"a", "b", "c"}, Clicks: make([]bool, 3)}},
		{Session: &clickmodel.Session{Query: "q", Docs: []string{"d0", "d1"}, Clicks: make([]bool, 2)}},
	}
	answers := func(e *Engine, model string) []float64 {
		var out []float64
		for _, p := range probes {
			p.Model = model
			resp, err := e.ScoreCTR(context.Background(), p)
			if err != nil {
				continue // macro evidence for the micro model, or the reverse
			}
			out = append(append(out, resp.CTR, resp.Score), resp.Positions...)
		}
		return out
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzImportV1(t, data, answers)
		if len(data) >= 4 {
			body := data[: len(data)-4 : len(data)-4]
			fuzzImportV1(t, binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body)), answers)
		}
	})
}

// fuzzImportV1 is FuzzImportV1's property for one input.
func fuzzImportV1(t *testing.T, data []byte, answers func(*Engine, string) []float64) {
	t.Helper()
	// TotalAlloc counts the whole process, so a reading also holds what
	// the runtime or a fuzz worker's own goroutines allocated meanwhile.
	// An import over the bound is retried: that noise inflates one
	// reading, not three, while an import that sizes something from a
	// corrupt count allocates it every time.
	var v2 []byte
	var err error
	bound := uint64(1<<20 + 64*len(data))
	for try := 1; ; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v2, err = importV1(data)
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		if alloc <= bound {
			break
		}
		if try == 3 {
			t.Fatalf("importing %d bytes allocated %d three times over (bound %d)", len(data), alloc, bound)
		}
	}
	if err != nil {
		return
	}
	e := New()
	info, err := e.LoadSnapshot("", bytes.NewReader(v2))
	if err != nil {
		t.Fatalf("the importer's output does not load: %v", err)
	}
	var out bytes.Buffer
	if err := e.SaveSnapshot(info.Ref(), &out); err != nil {
		t.Fatalf("export: %v", err)
	}
	if !bytes.Equal(out.Bytes(), v2) {
		t.Fatalf("exporting the imported model changed its %d bytes", len(v2))
	}
	e2 := New()
	if _, err := e2.LoadSnapshot("", &out); err != nil {
		t.Fatalf("the export does not load: %v", err)
	}
	want, got := answers(e, info.Name), answers(e2, info.Name)
	if len(want) != len(got) {
		t.Fatalf("the export answers %d values, the import %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) && !(math.Abs(want[i]-got[i]) <= 1e-12) {
			t.Fatalf("answer %d: the export says %v, the import said %v", i, got[i], want[i])
		}
	}
}
