package clickmodel

// Snapshots: every built-in model saves its fitted parameters as a v2
// artifact (v2.go) and restores from one, through one parameter list
// per model — the params methods below are the only place a model's
// layout is spelled, and which of its values are probabilities. This is
// the train-offline half of the serving split: fit on a log, Save, ship
// the artifact, and a serving process thaws it into the form a fit
// produces, without re-estimating anything (see internal/engine's
// LoadSnapshot family and cmd/microserve).

import (
	"io"

	"repro/internal/snapshot"
)

// LoadModel reads any click-model artifact from r: FromArtifact, after
// every section CRC is checked, since a stream's provenance is unknown.
func LoadModel(r io.Reader) (Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	a, err := snapshot.ParseV2(data)
	if err != nil {
		return nil, err
	}
	if err := a.VerifySections(); err != nil {
		return nil, err
	}
	return FromArtifact(a)
}

// FromArtifact builds the model a parsed v2 artifact names, through the
// registry, and thaws the artifact into it: the model holds the pair
// table and value slices a fit produces and keeps no reference to the
// bytes. Every value and the pair table are checked (readArtifact);
// section CRCs are the caller's to check.
func FromArtifact(a *snapshot.V2Artifact) (Model, error) {
	m, err := New(a.ModelName)
	if err != nil {
		return nil, err
	}
	if err := readArtifact(a, m); err != nil {
		return nil, err
	}
	return m, nil
}

// ParamCount reports the number of fitted parameters a model holds —
// the engine's Models() metadata: every value of its dense, triangular
// and per-pair parameters, its fitted scalars, BBM's clicks. A model
// holds a value for every pair of its table and every per-pair
// parameter — the prior where the pair has no evidence — so it counts
// pairs × per-pair parameters, fitted or loaded alike.
func ParamCount(m Model) int {
	n := 0
	for _, p := range m.params() {
		switch p.kind {
		case metaFloat:
			if p.fitted {
				n++
			}
		case denseVals, pairDense:
			n += len(*p.vals)
		case triVals:
			n += tri(len(*p.rows))
		case bbmCounts:
			n += len(p.bbm.clicks)
		}
	}
	return n
}

// --- the parameter lists ---

func (m *PBM) params() []param {
	return []param{
		scalar(&m.PriorAlpha).prob(),
		dense("gamma", &m.Gamma).prob(),
		overPairs("a.vals", &m.pairs, &m.alphas, &m.PriorAlpha).prob(),
	}
}

func (m *Cascade) params() []param {
	return []param{
		scalar(&m.PriorAlpha).prob(), scalar(&m.LaplaceA), scalar(&m.LaplaceB),
		overPairs("a.vals", &m.pairs, &m.alphas, &m.PriorAlpha).prob(),
	}
}

func (m *DCM) params() []param {
	return []param{
		scalar(&m.PriorAlpha).prob(), scalar(&m.LaplaceA), scalar(&m.LaplaceB),
		dense("lambda", &m.Lambda).prob(),
		overPairs("a.vals", &m.pairs, &m.alphas, &m.PriorAlpha).prob(),
	}
}

func (m *UBM) params() []param {
	return []param{
		scalar(&m.PriorAlpha).prob(),
		triangular("gamma", &m.Gamma).prob(),
		overPairs("a.vals", &m.pairs, &m.alphas, &m.PriorAlpha).prob(),
	}
}

// params lists the fitted UBM browsing layer, then the compact
// relevance sufficient statistics — click counts and per-gamma-cell
// skip counts — so posterior means are recomputable without the log.
// A BBM built without NewBBM and never fitted lists a default browsing
// layer; params only reads the model (a loaded BBM comes from NewBBM,
// which gives it a layer to fill).
func (m *BBM) params() []param {
	browse := m.Browse
	if browse == nil {
		browse = NewUBM()
	}
	return append(browse.params(),
		count(&m.GridSize), count(&m.nCell),
		dense("cgam", &m.cellGamma).prob(),
		param{kind: bbmCounts, bbm: m, tab: &m.pairs},
	)
}

func (m *CCM) params() []param {
	return []param{
		fittedScalar(&m.Alpha1).prob(), fittedScalar(&m.Alpha2).prob(), fittedScalar(&m.Alpha3).prob(),
		scalar(&m.PriorR).prob(),
		overPairs("r.vals", &m.pairs, &m.rel, &m.PriorR).prob(),
	}
}

func (m *DBN) params() []param {
	return []param{
		fittedScalar(&m.Gamma).prob(), scalar(&m.PriorA).prob(), scalar(&m.PriorS).prob(),
		overPairs("a.vals", &m.pairs, &m.attr, &m.PriorA).prob(),
		overPairs("s.vals", &m.pairs, &m.sat, &m.PriorS).prob(),
	}
}

func (m *SDBN) params() []param {
	return []param{
		scalar(&m.PriorA).prob(), scalar(&m.PriorS).prob(), scalar(&m.LaplaceA), scalar(&m.LaplaceB),
		overPairs("a.vals", &m.pairs, &m.attr, &m.PriorA).prob(),
		overPairs("s.vals", &m.pairs, &m.sat, &m.PriorS).prob(),
	}
}

func (m *GCM) params() []param {
	return []param{
		scalar(&m.PriorR).prob(),
		dense("lskip", &m.LambdaSkip).prob(), dense("lclick", &m.LambdaClick).prob(),
		overPairs("r.vals", &m.pairs, &m.rel, &m.PriorR).prob(),
	}
}

func (m *SUM) params() []param {
	return []param{
		scalar(&m.PriorU).prob(),
		dense("basectr", &m.baseCTR).prob(),
		overPairs("u.vals", &m.pairs, &m.utility, &m.PriorU).prob(),
	}
}

// Save implements Model for every built-in model: it writes the
// model's artifact from its parameter list, refusing a UBM gamma that
// is not triangular (row i of i+1 cells).
func (m *PBM) Save(w io.Writer) error     { return writeArtifact(w, m) }
func (m *Cascade) Save(w io.Writer) error { return writeArtifact(w, m) }
func (m *DCM) Save(w io.Writer) error     { return writeArtifact(w, m) }
func (m *UBM) Save(w io.Writer) error     { return writeArtifact(w, m) }
func (m *BBM) Save(w io.Writer) error     { return writeArtifact(w, m) }
func (m *CCM) Save(w io.Writer) error     { return writeArtifact(w, m) }
func (m *DBN) Save(w io.Writer) error     { return writeArtifact(w, m) }
func (m *SDBN) Save(w io.Writer) error    { return writeArtifact(w, m) }
func (m *GCM) Save(w io.Writer) error     { return writeArtifact(w, m) }
func (m *SUM) Save(w io.Writer) error     { return writeArtifact(w, m) }
