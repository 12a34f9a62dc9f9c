package engine

// Generator of the parent-written v2 fixtures under
// internal/engine/testdata/parent_8bb530c. It is not part of any build:
// to regenerate, check out commit 8bb530c, copy this file into
// internal/engine as zz_fixture_test.go and run
//
//	FIXTURE_DIR=/abs/path go test ./internal/engine -run TestWriteParentFixtures
//
// It writes micro.mbs2 (a micro model with 1-, 2- and 3-gram keys),
// pbm.mbs2 and dbn.mbs2 as that commit's SaveV2 writes them — probe
// tables and tags placed under that commit's hash — and golden.json:
// the inputs scored and, bit for bit, what that commit's engine answered
// after loading each artifact with LoadSnapshotFile.

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
	"repro/internal/core"
	"repro/internal/serp"
)

type goldenMicro struct {
	Lines []string `json:"lines"`
	MaxN  int      `json:"max_n"`
	CTR   string   `json:"ctr"`   // math.Float64bits, hex
	Score string   `json:"score"` // math.Float64bits, hex
}

type goldenClick struct {
	Query string   `json:"query"`
	Docs  []string `json:"docs"`
	Probs []string `json:"probs"` // math.Float64bits per position, hex
}

type golden struct {
	Commit string        `json:"commit"`
	Micro  []goldenMicro `json:"micro"`
	PBM    []goldenClick `json:"pbm"`
	DBN    []goldenClick `json:"dbn"`
}

func bitsHex(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func TestWriteParentFixtures(t *testing.T) {
	dir := os.Getenv("FIXTURE_DIR")
	if dir == "" {
		t.Skip("FIXTURE_DIR not set")
	}
	ctx := context.Background()
	lex := adcorpus.DefaultLexicon()
	corpus := adcorpus.Generate(adcorpus.Config{Seed: 18, Groups: 24}, lex)
	sim := serp.New(serp.Config{Seed: 19})
	g := golden{Commit: "8bb530cfd367d9ca3f851c64f74f36e01810de22"}

	// Micro: the lexicon's planted phrases plus every 1..3-gram of the
	// first creatives' lines, so all three gram sizes hit.
	m := sim.TrueModel(lex)
	n := 0
	for gi := range corpus.Groups {
		for ci := range corpus.Groups[gi].Creatives {
			for _, line := range corpus.Groups[gi].Creatives[ci].Lines {
				words := strings.Fields(line)
				for i := range words {
					for k := 1; k <= 3 && i+k <= len(words) && len(m.Relevance) < 400; k++ {
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
	write := func(name string, save func(io.Writer) error) string {
		path := filepath.Join(dir, name+".mbs2")
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
	var _ *core.Model = m
	e := New()
	if _, err := e.LoadSnapshotFile("", write("micro", m.SaveV2)); err != nil {
		t.Fatal(err)
	}
	for gi := 0; gi < len(corpus.Groups) && len(g.Micro) < 48; gi++ {
		for ci, c := range corpus.Groups[gi].Creatives {
			lines := append([]string(nil), c.Lines...)
			switch (gi + ci) % 4 { // a few shapes beyond the corpus' lower-case words
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
			g.Micro = append(g.Micro, goldenMicro{Lines: lines, MaxN: maxN, CTR: bitsHex(resp.CTR), Score: bitsHex(resp.Score)})
			if ci == 1 {
				break
			}
		}
	}

	sessions := sim.Sessions(corpus, 1500, 4)
	for i := range sessions { // the simulator has one query; give the pair tables a few, of more than one token
		sessions[i].Query = fmt.Sprintf("serp page %d", i%9)
	}
	train, eval := sessions[:1400], sessions[1400:1440]
	eval = append(eval, clickmodel.Session{Query: "never seen", Docs: []string{"nor this", eval[0].Docs[0]}, Clicks: make([]bool, 2)})
	for _, name := range []string{"pbm", "dbn"} {
		cm, err := clickmodel.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := cm.Fit(train); err != nil {
			t.Fatal(err)
		}
		if _, err := e.LoadSnapshotFile("", write(name, func(w io.Writer) error { return clickmodel.SaveV2Model(w, cm) })); err != nil {
			t.Fatal(err)
		}
		var out []goldenClick
		for i := range eval {
			s := eval[i]
			resp, err := e.ScoreCTR(ctx, Request{Model: name, Session: &s})
			if err != nil {
				t.Fatal(err)
			}
			gc := goldenClick{Query: s.Query, Docs: s.Docs}
			for _, p := range resp.Positions {
				gc.Probs = append(gc.Probs, bitsHex(p))
			}
			out = append(out, gc)
		}
		if name == "pbm" {
			g.PBM = out
		} else {
			g.DBN = out
		}
	}
	data, err := json.MarshalIndent(&g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "golden.json"), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
