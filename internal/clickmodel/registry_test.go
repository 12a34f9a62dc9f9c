package clickmodel

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// taxonomyOrder is the paper's related-work order the built-ins must
// keep, because All() and reports iterate it.
var taxonomyOrder = []string{"pbm", "cascade", "dcm", "ubm", "bbm", "ccm", "dbn", "sdbn", "gcm", "sum"}

func TestRegistryNamesOrder(t *testing.T) {
	names := Names()
	if len(names) < len(taxonomyOrder) {
		t.Fatalf("Names() = %v, want at least the %d built-ins", names, len(taxonomyOrder))
	}
	for i, want := range taxonomyOrder {
		if names[i] != want {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], want)
		}
	}
}

func TestRegistryNewKnown(t *testing.T) {
	for _, name := range taxonomyOrder {
		m, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if got := strings.ToLower(m.Name()); got != name {
			t.Errorf("New(%q).Name() = %q", name, m.Name())
		}
	}
	// Case-insensitive, whitespace-tolerant.
	if _, err := New(" PBM "); err != nil {
		t.Errorf("New(\" PBM \"): %v", err)
	}
}

func TestRegistryNewReturnsFreshInstances(t *testing.T) {
	a, _ := New("pbm")
	b, _ := New("pbm")
	if a == b {
		t.Fatal("New returned the same instance twice")
	}
}

func TestRegistryUnknownName(t *testing.T) {
	_, err := New("nope")
	if err == nil {
		t.Fatal("New(\"nope\") succeeded")
	}
	if !strings.Contains(err.Error(), "nope") || !strings.Contains(err.Error(), "pbm") {
		t.Errorf("error should name the request and list choices: %v", err)
	}
	if _, err := New(""); err == nil {
		t.Error("New(\"\") succeeded")
	}
}

func TestAllMatchesRegistry(t *testing.T) {
	all := All()
	names := Names()
	if len(all) != len(names) {
		t.Fatalf("All() returned %d models, registry has %d", len(all), len(names))
	}
	for i, m := range all {
		if got := strings.ToLower(m.Name()); got != names[i] {
			t.Errorf("All()[%d].Name() = %q, want %q", i, m.Name(), names[i])
		}
	}
}

// iterationsField is the EM round count of m's constructor, which
// Train sets — BBM's lives in its browsing layer — or nil for a model
// fitted in closed form.
func iterationsField(m Model) *int {
	switch t := m.(type) {
	case *PBM:
		return &t.Iterations
	case *UBM:
		return &t.Iterations
	case *BBM:
		return &t.Browse.Iterations
	case *CCM:
		return &t.Iterations
	case *DBN:
		return &t.Iterations
	case *GCM:
		return &t.Iterations
	case *SUM:
		return &t.Iterations
	}
	return nil
}

// TestTrain pins the one fit entry point over every model: the
// iteration count reaches the model and one <= 0 keeps the
// constructor's default, and the estimator picked — FitStats for a
// counting model given statistics, FitLog otherwise — matches the same
// fit done by hand, by bits. The statistics cover another log than the
// compiled one, so the two estimators answer differently.
func TestTrain(t *testing.T) {
	sessions := snapSessions(21, 200, 4)
	c, err := Compile(sessions)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStats()
	if err := st.AddAll(sessions[:120]); err != nil {
		t.Fatal(err)
	}
	type trainCase struct {
		name, model string
		iterations  int
		log         *CompiledLog
		stats       *Stats
		fails       bool
	}
	cases := []trainCase{
		{"iterations applied", "pbm", 4, c, nil, false},
		{"non-positive iterations keep the default", "ubm", 0, c, nil, false},
		{"non-iterative model ignores iterations", "cascade", 7, c, nil, false},
		{"counting model from stats", "sdbn", 0, c, st, false},
		{"counting model from the log without stats", "dcm", 0, c, nil, false},
		{"EM model ignores stats", "dbn", 3, c, st, false},
		{"sum via its FitLog", "sum", 2, c, st, false},
		{"unknown name", "nope", 0, c, st, true},
		{"nil log, EM model", "pbm", 0, nil, st, true},
		{"nil log, SUM", "sum", 0, nil, st, true},
		{"nil log and stats, counting model", "sdbn", 0, nil, nil, true},
	}
	for _, name := range Names() {
		for _, iterations := range []int{-1, 0, 3} {
			for _, stats := range []*Stats{nil, st} {
				cases = append(cases, trainCase{fmt.Sprintf("%s/iterations=%d/stats=%t", name, iterations, stats != nil),
					name, iterations, c, stats, false})
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Train(tc.model, tc.iterations, tc.log, tc.stats)
			if tc.fails {
				if err == nil {
					t.Fatalf("Train(%q) fitted %s", tc.model, m.Name())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want, err := New(tc.model)
			if err != nil {
				t.Fatal(err)
			}
			if p := iterationsField(want); p != nil {
				if tc.iterations > 0 {
					*p = tc.iterations
				}
				if got := *iterationsField(m); got != *p {
					t.Errorf("Train(%q, %d) runs %d iterations, want %d", tc.model, tc.iterations, got, *p)
				}
			}
			if sf, counting := want.(StatsFitter); counting && tc.stats != nil {
				err = sf.FitStats(tc.stats)
			} else {
				err = want.FitLog(tc.log)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(m, want) {
				t.Errorf("Train's %s differs from the same fit by hand", m.Name())
			}
			for i, s := range sessions[:20] {
				got, exp := m.ClickProbsInto(s, nil), want.ClickProbsInto(s, nil)
				for j := range exp {
					if math.Float64bits(got[j]) != math.Float64bits(exp[j]) {
						t.Fatalf("session %d pos %d: %v, want %v", i, j, got[j], exp[j])
					}
				}
			}
		})
	}
}
