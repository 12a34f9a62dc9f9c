package clickmodel

// Snapshots: every built-in model saves its fitted parameters as a v2
// artifact (v2.go) and restores from one, through one parameter list
// per model — the params methods below are the only place a model's
// layout is spelled. This is the train-offline half of the serving
// split: fit on a log, Save, ship the artifact, and a serving process
// loads it without re-estimating anything (see internal/engine's
// LoadSnapshot family and cmd/microserve).

import (
	"io"

	"repro/internal/snapshot"
)

// LoadModel reads any click-model artifact from r, constructing the
// model named in its header through the registry. A stream's
// provenance is unknown, so every section CRC is checked. The model is
// thawed: it keeps nothing of the bytes.
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
	m, _, err := build(a, false)
	return m, err
}

// FromArtifact builds the model a parsed v2 artifact names, the way
// the engine serves it: PBM and DBN view the artifact's per-pair
// sections in place (views is true, and the bytes must outlive the
// model), every other model is thawed. Section CRCs are the caller's to
// check; the deep table checks a served model defers are its
// ValidateTables.
func FromArtifact(a *snapshot.V2Artifact) (m Model, views bool, err error) {
	return build(a, true)
}

// build constructs the model an artifact names through the registry and
// reads its parameters, viewing the bytes where serve allows it.
func build(a *snapshot.V2Artifact, serve bool) (Model, bool, error) {
	m, err := New(a.ModelName)
	if err != nil {
		return nil, false, err
	}
	views, err := readArtifact(a, m, serve)
	if err != nil {
		return nil, false, err
	}
	return m, views, nil
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
		scalar(&m.PriorAlpha),
		dense("gamma", &m.Gamma),
		overPairs("a.vals", &m.pairs, &m.alphas, &m.PriorAlpha).servedFrom(&m.frozen),
	}
}

// ValidateTables runs the deep O(n) structural checks an artifact-backed
// PBM defers; verified load paths call it before install. A fitted model
// has no frozen tables and passes.
func (m *PBM) ValidateTables() error { return m.frozen.validate() }

func (m *Cascade) params() []param {
	return []param{
		scalar(&m.PriorAlpha), scalar(&m.LaplaceA), scalar(&m.LaplaceB),
		overPairs("a.vals", &m.pairs, &m.alphas, &m.PriorAlpha),
	}
}

func (m *DCM) params() []param {
	return []param{
		scalar(&m.PriorAlpha), scalar(&m.LaplaceA), scalar(&m.LaplaceB),
		dense("lambda", &m.Lambda),
		overPairs("a.vals", &m.pairs, &m.alphas, &m.PriorAlpha),
	}
}

func (m *UBM) params() []param {
	return []param{
		scalar(&m.PriorAlpha),
		triangular("gamma", &m.Gamma),
		overPairs("a.vals", &m.pairs, &m.alphas, &m.PriorAlpha),
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
		dense("cgam", &m.cellGamma),
		param{kind: bbmCounts, bbm: m, tab: &m.pairs},
	)
}

func (m *CCM) params() []param {
	return []param{
		fittedScalar(&m.Alpha1), fittedScalar(&m.Alpha2), fittedScalar(&m.Alpha3),
		scalar(&m.PriorR),
		overPairs("r.vals", &m.pairs, &m.rel, &m.PriorR),
	}
}

func (m *DBN) params() []param {
	return []param{
		fittedScalar(&m.Gamma), scalar(&m.PriorA), scalar(&m.PriorS),
		overPairs("a.vals", &m.pairs, &m.attr, &m.PriorA).servedFrom(&m.frozen),
		overPairs("s.vals", &m.pairs, &m.sat, &m.PriorS).servedFrom(&m.frozen),
	}
}

// ValidateTables runs the deep O(n) structural checks an artifact-backed
// DBN defers (see PBM.ValidateTables).
func (m *DBN) ValidateTables() error { return m.frozen.validate() }

func (m *SDBN) params() []param {
	return []param{
		scalar(&m.PriorA), scalar(&m.PriorS), scalar(&m.LaplaceA), scalar(&m.LaplaceB),
		overPairs("a.vals", &m.pairs, &m.attr, &m.PriorA),
		overPairs("s.vals", &m.pairs, &m.sat, &m.PriorS),
	}
}

func (m *GCM) params() []param {
	return []param{
		scalar(&m.PriorR),
		dense("lskip", &m.LambdaSkip), dense("lclick", &m.LambdaClick),
		overPairs("r.vals", &m.pairs, &m.rel, &m.PriorR),
	}
}

func (m *SUM) params() []param {
	return []param{
		scalar(&m.PriorU),
		dense("basectr", &m.baseCTR),
		overPairs("u.vals", &m.pairs, &m.utility, &m.PriorU),
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
