package engine

// Generator of the parent-written v1 fixtures under
// internal/engine/testdata/parent_0c75e9e. It is not part of any build:
// to regenerate, check out commit 0c75e9e, copy this file into
// internal/engine as zz_fixture_test.go and run
//
//	FIXTURE_DIR=/abs/path go test ./internal/engine -run TestWriteParentV1Fixtures
//
// It writes <model>.mbsn — the v1 artifact that commit's Save writes —
// for the micro model (1-, 2- and 3-gram keys), every registry click
// model, and a BBM fitted on result lists deep enough for its sparse
// skip counts (bbm_sparse.mbsn); and golden.json: the inputs scored
// and, bit for bit, what that commit's engine answered after loading
// each artifact with LoadSnapshotFile. The v1 files are not kept:
// convert_test.go turned each into the <model>.mbs2 beside it, and
// golden.json is as this program wrote it.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adcorpus"
	"repro/internal/clickmodel"
	"repro/internal/serp"
)

type v1GoldenMicro struct {
	Lines []string `json:"lines"`
	MaxN  int      `json:"max_n"`
	CTR   string   `json:"ctr"`   // math.Float64bits, hex
	Score string   `json:"score"` // math.Float64bits, hex
}

type v1GoldenClick struct {
	Query string   `json:"query"`
	Docs  []string `json:"docs"`
	Probs []string `json:"probs"` // math.Float64bits per position, hex
}

type v1Golden struct {
	Commit string                     `json:"commit"`
	Micro  []v1GoldenMicro            `json:"micro"`
	Click  map[string][]v1GoldenClick `json:"click"` // by fixture name
}

func TestWriteParentV1Fixtures(t *testing.T) {
	dir := os.Getenv("FIXTURE_DIR")
	if dir == "" {
		t.Skip("FIXTURE_DIR not set")
	}
	hex := func(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }
	ctx := context.Background()
	lex := adcorpus.DefaultLexicon()
	corpus := adcorpus.Generate(adcorpus.Config{Seed: 18, Groups: 24}, lex)
	sim := serp.New(serp.Config{Seed: 19})
	g := v1Golden{Commit: "0c75e9edc73f36bb97b0f91909c09a016d5f9a4d", Click: map[string][]v1GoldenClick{}}

	write := func(name string, save func(io.Writer) error) string {
		path := filepath.Join(dir, name+".mbsn")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := save(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	e := New()

	// Micro: the lexicon's planted phrases plus 1..3-grams of the first
	// creatives' lines, so all three gram sizes hit.
	m := sim.TrueModel(lex)
	n := 0
	for gi := range corpus.Groups {
		for ci := range corpus.Groups[gi].Creatives {
			for _, line := range corpus.Groups[gi].Creatives[ci].Lines {
				words := strings.Fields(line)
				for i := range words {
					for k := 1; k <= 3 && i+k <= len(words) && len(m.Relevance) < 300; k++ {
						term := strings.Join(words[i:i+k], " ")
						if _, ok := m.Relevance[term]; !ok {
							n++
							m.Relevance[term] = 0.2 + float64(n%61)/100
						}
					}
				}
			}
		}
	}
	m.DefaultRelevance = 0.35
	if _, err := e.LoadSnapshotFile("", write("micro", m.Save)); err != nil {
		t.Fatal(err)
	}
	for gi := 0; gi < len(corpus.Groups) && len(g.Micro) < 32; gi++ {
		for ci, c := range corpus.Groups[gi].Creatives {
			lines := append([]string(nil), c.Lines...)
			switch (gi + ci) % 4 {
			case 1:
				lines[0] = strings.ToUpper(lines[0][:1]) + lines[0][1:] + "!"
			case 2:
				lines[len(lines)-1] += " — today's café deals, 20% off"
			}
			maxN := 1 + (gi+ci)%3
			resp, err := e.ScoreCTR(ctx, Request{Model: NameMicro, Lines: lines, MaxN: maxN})
			if err != nil {
				t.Fatal(err)
			}
			g.Micro = append(g.Micro, v1GoldenMicro{Lines: lines, MaxN: maxN, CTR: hex(resp.CTR), Score: hex(resp.Score)})
			if ci == 1 {
				break
			}
		}
	}

	// score installs one fitted model from its v1 file and records what
	// the engine answers for each evaluation session.
	score := func(fixture string, cm clickmodel.Model, eval []clickmodel.Session) {
		info, err := e.LoadSnapshotFile(fixture, write(fixture, cm.(clickmodel.Snapshotter).Save))
		if err != nil {
			t.Fatal(err)
		}
		for i := range eval {
			s := eval[i]
			resp, err := e.ScoreCTR(ctx, Request{Model: info.Ref(), Session: &s})
			if err != nil {
				t.Fatal(err)
			}
			gc := v1GoldenClick{Query: s.Query, Docs: s.Docs}
			for _, p := range resp.Positions {
				gc.Probs = append(gc.Probs, hex(p))
			}
			g.Click[fixture] = append(g.Click[fixture], gc)
		}
	}

	sessions := sim.Sessions(corpus, 520, 4)
	for i := range sessions { // the simulator has one query; give the pair tables a few
		sessions[i].Query = fmt.Sprintf("serp page %d", i%5)
	}
	train, eval := sessions[:500], sessions[500:]
	eval = append(eval, clickmodel.Session{Query: "never seen", Docs: []string{"nor this", eval[0].Docs[0]}, Clicks: make([]bool, 2)})
	for _, name := range clickmodel.Names() {
		cm, err := clickmodel.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := cm.Fit(train); err != nil {
			t.Fatal(err)
		}
		score(name, cm, eval)
	}

	// A BBM whose triangular cell axis is too long for the dense skip
	// matrix: 46 positions, tri(46) > 1024 cells.
	var deep []clickmodel.Session
	for k := 0; k < 14; k++ {
		s := clickmodel.Session{Query: fmt.Sprintf("deep %d", k%3), Docs: make([]string, 46), Clicks: make([]bool, 46)}
		for i := range s.Docs {
			s.Docs[i] = fmt.Sprintf("d%d", (i*7+k)%50)
			s.Clicks[i] = (i*k+3)%11 == 0
		}
		deep = append(deep, s)
	}
	bbm := clickmodel.NewBBM()
	bbm.SetIterations(3)
	if err := bbm.Fit(deep[:12]); err != nil {
		t.Fatal(err)
	}
	score("bbm_sparse", bbm, deep[10:])

	data, err := json.MarshalIndent(&g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "golden.json"), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
