package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// testList declares one of each shape: a top-level gauge, a block of a
// counter and a scaled gauge, a labelled histogram family of two series
// and a run-time family that is empty until told otherwise.
func testList(dyn *[]Series) List {
	var h1, h2 Histogram
	h1.Record(1000)
	h2.Record(3000)
	stage := func(name string, h *Histogram) Metric {
		return Metric{Name: "t_stage_seconds", Help: "Stage time.", Kind: KindHistogram,
			Labels: `stage="` + name + `"`, Scale: 1e-9, Hist: h}
	}
	return List{
		{Name: "t_models", Help: "Models.", Kind: KindGauge, Key: "models", Value: func() float64 { return 2 }},
		{Name: "t_hits_total", Help: "Hits.", Kind: KindCounter, Block: "memo", Key: "hits", Value: func() float64 { return 7 }},
		{Name: "t_last_seconds", Help: "Last.", Kind: KindGauge, Block: "memo", Key: "last_ms", Scale: 1e-3,
			Value: func() float64 { return 1.5 }},
		stage("a", &h1), stage("b", &h2),
		{Name: "t_drift", Help: "Drift.", Kind: KindGauge, Series: func() []Series { return *dyn }},
	}
}

func TestListSurfaces(t *testing.T) {
	var dyn []Series
	l := testList(&dyn)

	prom := string(l.AppendProm(nil))
	for _, want := range []string{
		"# HELP t_models Models.\n# TYPE t_models gauge\nt_models 2\n",
		"# TYPE t_hits_total counter\nt_hits_total 7\n",
		"t_last_seconds 0.0015\n",
		`t_stage_seconds_bucket{stage="a",le="+Inf"} 1` + "\n",
		`t_stage_seconds_sum{stage="b"} 3e-06` + "\n",
		`t_stage_seconds_count{stage="b"} 1` + "\n",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("exposition lacks %q:\n%s", want, prom)
		}
	}
	if n := strings.Count(prom, "# TYPE t_stage_seconds histogram"); n != 1 {
		t.Errorf("histogram family has %d TYPE lines, want 1", n)
	}
	if strings.Contains(prom, "t_drift") {
		t.Error("a run-time family with no series was rendered")
	}
	dyn = []Series{{Labels: `model="m"`, Value: 0.25}}
	if prom := string(l.AppendProm(nil)); !strings.Contains(prom, "# TYPE t_drift gauge\nt_drift{model=\"m\"} 0.25\n") {
		t.Errorf("run-time family not rendered:\n%s", prom)
	}

	doc := `{"status":"ok"` + string(l.AppendJSON(nil)) + "}"
	var got map[string]any
	if err := json.Unmarshal([]byte(doc), &got); err != nil {
		t.Fatalf("%s: %v", doc, err)
	}
	if doc != `{"status":"ok","models":2,"memo":{"hits":7,"last_ms":1.5}}` {
		t.Errorf("healthz members = %s", doc)
	}

	want := map[string]float64{"models": 2, "memo.hits": 7, "memo.last_ms": 1.5}
	r := l.Read()
	if len(r) != len(want) {
		t.Errorf("Read = %v, want %v", r, want)
	}
	for k, v := range want {
		if r[k] != v {
			t.Errorf("Read[%q] = %v, want %v", k, r[k], v)
		}
	}
}

// TestNumberForms: counters print as integers, integral gauges too (so
// /healthz decodes into Go ints), anything else in shortest form.
func TestNumberForms(t *testing.T) {
	for _, c := range []struct {
		k    Kind
		v    float64
		want string
	}{
		{KindCounter, 12345678, "12345678"},
		{KindGauge, 1 << 40, "1099511627776"},
		{KindGauge, -3, "-3"},
		{KindGauge, 0.125, "0.125"},
		{KindGauge, 1e-7, "1e-07"},
	} {
		if got := string(appendNumber(nil, c.k, c.v)); got != c.want {
			t.Errorf("appendNumber(%v, %v) = %s, want %s", c.k, c.v, got, c.want)
		}
	}
}
