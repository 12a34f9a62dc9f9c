package main

import (
	"testing"
)

func TestSameSeedSameRequestStream(t *testing.T) {
	for i := range workloads {
		spec := &workloads[i]
		t.Run(spec.Name, func(t *testing.T) {
			a, err := buildInputs(spec, 42, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer a.close()
			b, err := buildInputs(spec, 42, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			c, err := buildInputs(spec, 43, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer c.close()
			if a.streamHash == "" || a.streamHash != b.streamHash {
				t.Errorf("seed 42 gave stream hashes %q and %q", a.streamHash, b.streamHash)
			}
			if a.streamHash == c.streamHash {
				t.Errorf("seeds 42 and 43 gave the same stream hash %q", a.streamHash)
			}
		})
	}
}

func TestScoreWorkloadsShareOneStream(t *testing.T) {
	// score_json is defined as the byte-identical request stream of
	// score_mbsp in another encoding.
	mbsp, err := buildInputs(findWorkload("score_mbsp"), 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer mbsp.close()
	js, err := buildInputs(findWorkload("score_json"), 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer js.close()
	if mbsp.streamHash != js.streamHash {
		t.Errorf("score_mbsp stream %s, score_json stream %s", mbsp.streamHash, js.streamHash)
	}
}

func TestInputShapes(t *testing.T) {
	in, err := buildInputs(findWorkload("optimize_mbsp"), 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	if got := in.ref.NumParams(); got != modelTerms {
		t.Errorf("served model has %d terms, want %d", got, modelTerms)
	}
	if len(in.optReqs) != poolFrames {
		t.Fatalf("%d optimize requests, want %d", len(in.optReqs), poolFrames)
	}
	for f := range in.optReqs {
		r, exp := &in.optReqs[f], &in.optRef[f]
		if len(r.Candidates) != optimizeCands || r.TopK != optimizeTopK || r.MaxN != maxN {
			t.Fatalf("optimize request %d: %d candidates, top_k %d, max_n %d", f, len(r.Candidates), r.TopK, r.MaxN)
		}
		if len(exp.ranked) != optimizeTopK {
			t.Fatalf("reference ranking %d has %d entries", f, len(exp.ranked))
		}
		for k := 1; k < len(exp.ranked); k++ {
			if exp.ranked[k].CTR > exp.ranked[k-1].CTR {
				t.Fatalf("reference ranking %d is not sorted by CTR", f)
			}
		}
		if exp.best >= 0 && exp.ranked[0].CTR <= exp.base.CTR {
			t.Fatalf("reference %d names candidate %d best although the base beats it", f, exp.best)
		}
	}

	mixed, err := buildInputs(findWorkload("mixed_online"), 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer mixed.close()
	fb := mixed.feedback[0]
	if len(fb.Sessions) != feedbackSess || len(fb.Snippets) != feedbackSnips {
		t.Errorf("feedback body carries %d sessions and %d snippets", len(fb.Sessions), len(fb.Snippets))
	}
	macro, micro := 0, 0
	for _, r := range mixed.mixedFrames[0] {
		if r.Session != nil && r.Model == "sdbn" {
			macro++
		} else if len(r.Lines) > 0 && r.Model == "micro" {
			micro++
		}
	}
	if macro != scoreBatch/2 || micro != scoreBatch/2 {
		t.Errorf("mixed frame has %d macro and %d micro items, want %d each", macro, micro, scoreBatch/2)
	}
}
