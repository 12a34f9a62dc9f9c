package clickmodel

import (
	"errors"
	"fmt"
	"strings"
)

// models is every click model constructible by name, in the paper's
// related-work taxonomy order: its canonical (lower-case) name and a
// constructor taking the EM iteration count, where iterations <= 0
// keeps the model's default and a model fitted in closed form ignores
// it.
var models = [...]struct {
	name string
	new  func(iterations int) Model
}{
	{"pbm", func(n int) Model { m := NewPBM(); setIterations(&m.Iterations, n); return m }},
	{"cascade", func(int) Model { return NewCascade() }},
	{"dcm", func(int) Model { return NewDCM() }},
	{"ubm", func(n int) Model { m := NewUBM(); setIterations(&m.Iterations, n); return m }},
	{"bbm", func(n int) Model { m := NewBBM(); setIterations(&m.Browse.Iterations, n); return m }},
	{"ccm", func(n int) Model { m := NewCCM(); setIterations(&m.Iterations, n); return m }},
	{"dbn", func(n int) Model { m := NewDBN(); setIterations(&m.Iterations, n); return m }},
	{"sdbn", func(int) Model { return NewSDBN() }},
	{"gcm", func(n int) Model { m := NewGCM(); setIterations(&m.Iterations, n); return m }},
	{"sum", func(n int) Model { m := NewSUM(); setIterations(&m.Iterations, n); return m }},
}

// setIterations overrides a constructor's default iteration count with
// n when n is positive.
func setIterations(dst *int, n int) {
	if n > 0 {
		*dst = n
	}
}

// construct builds the named model (case-insensitive) with the given
// iteration count. Unknown names return an error listing the valid
// choices.
func construct(name string, iterations int) (Model, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	for _, e := range models {
		if e.name == key {
			return e.new(iterations), nil
		}
	}
	return nil, fmt.Errorf("clickmodel: unknown model %q (registered: %s)",
		name, strings.Join(Names(), ", "))
}

// New constructs a fresh, unfitted model by name, with its default
// hyper-parameters.
func New(name string) (Model, error) { return construct(name, 0) }

// Train constructs the named model with the given EM iteration count
// (iterations <= 0 keeps the model's default) and fits it. It is the
// one place an estimator is picked: a counting model fits from st when
// st is non-nil (FitStats); otherwise the model fits from c (FitLog).
func Train(name string, iterations int, c *CompiledLog, st *Stats) (Model, error) {
	m, err := construct(name, iterations)
	if err != nil {
		return nil, err
	}
	switch sf, counting := m.(StatsFitter); {
	case counting && st != nil:
		err = sf.FitStats(st)
	case c == nil:
		err = errors.New("no sessions to fit from")
	default:
		err = m.FitLog(c)
	}
	if err != nil {
		return nil, fmt.Errorf("clickmodel: fitting %s: %w", m.Name(), err)
	}
	return m, nil
}

// Counting reports whether m is of the counting family, which Train
// fits from statistics alone: a caller that holds a Stats needs no
// session log for it.
func Counting(m Model) bool {
	_, ok := m.(StatsFitter)
	return ok
}

// Names returns every model name in the paper's related-work taxonomy
// order.
func Names() []string {
	out := make([]string, len(models))
	for i, e := range models {
		out[i] = e.name
	}
	return out
}

// All returns one fresh instance of every model, in the paper's
// related-work taxonomy order.
func All() []Model {
	out := make([]Model, len(models))
	for i, e := range models {
		out[i] = e.new(0)
	}
	return out
}
