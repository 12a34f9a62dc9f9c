package clickmodel

import (
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
	if _, err := Lookup(""); err == nil {
		t.Error("Lookup(\"\") succeeded")
	}
}

func TestRegisterPanics(t *testing.T) {
	cases := map[string]func(){
		"empty name":  func() { Register("", func() Model { return NewPBM() }) },
		"nil factory": func() { Register("x-nil", nil) },
		"duplicate":   func() { Register("pbm", func() Model { return NewPBM() }) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register with %s did not panic", name)
				}
			}()
			fn()
		}()
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

// TestTrain pins the one fit entry point: the iteration count it sets,
// the estimator it picks for each kind of model — compared by bits with
// the same fit done by hand — and the inputs it refuses.
func TestTrain(t *testing.T) {
	sessions := snapSessions(21, 200, 4)
	c, err := Compile(sessions)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStats()
	if err := st.AddAll(sessions); err != nil {
		t.Fatal(err)
	}
	withIterations := func(m Model, n int) Model {
		m.(IterativeModel).SetIterations(n)
		return m
	}
	for _, tc := range []struct {
		name       string
		model      string
		iterations int
		log        *CompiledLog
		stats      *Stats
		// want fits the same model by hand; nil when Train must fail.
		want func() (Model, error)
	}{
		{"iterations applied", "pbm", 4, c, nil, func() (Model, error) {
			m := withIterations(NewPBM(), 4)
			return m, m.Fit(sessions)
		}},
		{"non-positive iterations keep the default", "ubm", 0, c, nil, func() (Model, error) {
			m := NewUBM()
			return m, m.FitLog(c)
		}},
		{"non-iterative model ignores iterations", "cascade", 7, c, nil, func() (Model, error) {
			m := NewCascade()
			return m, m.FitLog(c)
		}},
		{"counting model from stats", "sdbn", 0, c, st, func() (Model, error) {
			m := NewSDBN()
			return m, m.FitStats(st)
		}},
		{"counting model from the log without stats", "dcm", 0, c, nil, func() (Model, error) {
			m := NewDCM()
			return m, m.FitLog(c)
		}},
		{"EM model ignores stats", "dbn", 3, c, st, func() (Model, error) {
			m := withIterations(NewDBN(), 3)
			return m, m.(LogFitter).FitLog(c)
		}},
		{"sum via the Fit fallback", "sum", 2, c, st, func() (Model, error) {
			m := withIterations(NewSUM(), 2)
			return m, m.Fit(sessions)
		}},
		{"unknown name", "nope", 0, c, st, nil},
		{"nil log, EM model", "pbm", 0, nil, st, nil},
		{"nil log, Fit fallback", "sum", 0, nil, st, nil},
		{"nil log and stats, counting model", "sdbn", 0, nil, nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Train(tc.model, tc.iterations, tc.log, tc.stats)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("Train(%q) fitted %s", tc.model, m.Name())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.want()
			if err != nil {
				t.Fatal(err)
			}
			if m.Name() != want.Name() {
				t.Fatalf("Train built %s, want %s", m.Name(), want.Name())
			}
			if !reflect.DeepEqual(m, want) {
				t.Errorf("Train's %s differs from the same fit by hand", m.Name())
			}
			for i, s := range sessions[:20] {
				got, exp := m.ClickProbs(s), want.ClickProbs(s)
				for j := range exp {
					if math.Float64bits(got[j]) != math.Float64bits(exp[j]) {
						t.Fatalf("session %d pos %d: %v, want %v", i, j, got[j], exp[j])
					}
				}
			}
		})
	}
}
