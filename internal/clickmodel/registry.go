package clickmodel

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Factory constructs a fresh, unfitted instance of one click model.
type Factory func() Model

// registry maps canonical (lower-case) model names to factories. The
// built-in models register themselves in init below; external callers
// may add their own with Register. Guarded by a mutex so registration
// and lookup are safe from concurrent goroutines (the engine resolves
// names lazily from its worker pool).
var registry = struct {
	sync.RWMutex
	factories map[string]Factory
	order     []string // registration order, for Names/All
}{factories: make(map[string]Factory)}

// Register makes a model constructible by name. Names are
// case-insensitive; registering an empty name, a nil factory or a
// duplicate name panics — all three are programmer errors that should
// fail loudly at process start, not at request time.
func Register(name string, f Factory) {
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "" {
		panic("clickmodel: Register with empty name")
	}
	if f == nil {
		panic("clickmodel: Register " + name + " with nil factory")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.factories[key]; dup {
		panic("clickmodel: Register called twice for " + key)
	}
	registry.factories[key] = f
	registry.order = append(registry.order, key)
}

// Lookup returns the factory registered under name (case-insensitive).
// Unknown names return a descriptive error listing the valid choices.
func Lookup(name string) (Factory, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	registry.RLock()
	f, ok := registry.factories[key]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("clickmodel: unknown model %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return f, nil
}

// New constructs a fresh, unfitted model by registry name.
func New(name string) (Model, error) {
	f, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(), nil
}

// Train constructs the named registry model, sets its EM iteration
// count (iterations <= 0 keeps the model's default) and fits it. It is
// the one place an estimator is picked: a counting model fits from st
// when st is non-nil (FitStats); otherwise the model fits from c,
// through FitLog when it has one and through Fit over c's source
// sessions when it has not.
func Train(name string, iterations int, c *CompiledLog, st *Stats) (Model, error) {
	m, err := New(name)
	if err != nil {
		return nil, err
	}
	if it, ok := m.(IterativeModel); ok && iterations > 0 {
		it.SetIterations(iterations)
	}
	sf, counting := m.(StatsFitter)
	lf, logFitter := m.(LogFitter)
	switch {
	case counting && st != nil:
		err = sf.FitStats(st)
	case c == nil:
		err = errors.New("no sessions to fit from")
	case logFitter:
		err = lf.FitLog(c)
	default:
		err = m.Fit(c.Sessions())
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

// Names returns every registered model name in registration order —
// for the built-ins, the paper's related-work taxonomy order.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, len(registry.order))
	copy(out, registry.order)
	return out
}

func init() {
	Register("pbm", func() Model { return NewPBM() })
	Register("cascade", func() Model { return NewCascade() })
	Register("dcm", func() Model { return NewDCM() })
	Register("ubm", func() Model { return NewUBM() })
	Register("bbm", func() Model { return NewBBM() })
	Register("ccm", func() Model { return NewCCM() })
	Register("dbn", func() Model { return NewDBN() })
	Register("sdbn", func() Model { return NewSDBN() })
	Register("gcm", func() Model { return NewGCM() })
	Register("sum", func() Model { return NewSUM() })
}
