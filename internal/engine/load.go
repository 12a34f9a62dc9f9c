package engine

import (
	"cmp"
	"fmt"
	"io"

	"repro/internal/clickmodel"
	"repro/internal/core"
	"repro/internal/mmap"
	"repro/internal/snapshot"
)

// LoadSnapshot reads a model artifact (written by SaveSnapshot, a
// model's own Save, or cmd/clickmodelfit -o) from a stream and installs
// it as a new version under name; an empty name installs under the
// model name recorded in the artifact. The swap is atomic: requests in
// flight keep the version they resolved, later requests see the new
// one.
//
// The bytes are read into anonymous memory and served from there. A
// stream's provenance is unknown, so they are checked like
// LoadSnapshotFileVerified checks a file's. For a file on disk use one
// of the file loads, which map the file instead of copying it.
func (e *Engine) LoadSnapshot(name string, r io.Reader) (ModelInfo, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return ModelInfo{}, err
	}
	art, err := mmap.FromBytes(data)
	if err != nil {
		return ModelInfo{}, err
	}
	return e.load(name, art, true)
}

// LoadSnapshotFile installs a model artifact from disk. The file is
// mapped read-only without a checksum pass: a file the operator names
// at start-up is trusted the way any loaded code is. A micro model is
// served straight off the mapping (O(1) in artifact size, the page
// cache shared across processes); a click model is thawed from it, its
// values and pair table checked as they are copied, and the mapping let
// go before the version is published.
func (e *Engine) LoadSnapshotFile(name, path string) (ModelInfo, error) {
	return e.loadFile(name, path, false)
}

// LoadSnapshotFileVerified is LoadSnapshotFile for a file of doubtful
// provenance: before anything is installed, every section's CRC-32C is
// checked (one sequential read of the file) and a micro model's tables
// are scanned. It is what the admin load endpoint calls.
func (e *Engine) LoadSnapshotFileVerified(name, path string) (ModelInfo, error) {
	return e.loadFile(name, path, true)
}

// loadFile is load over a mapped file.
func (e *Engine) loadFile(name, path string, verify bool) (ModelInfo, error) {
	art, err := mmap.Open(path)
	if err != nil {
		return ModelInfo{}, err
	}
	return e.load(name, art, verify)
}

// load is the one route from an artifact to a published version: build
// the scorer, check it when the provenance is not trusted, publish.
// load owns the artifact's reference: a micro scorer, which views it,
// takes it into the version table, a thawed click model lets it go at
// once, and every path that does not publish drops it, so a refused
// load leaves nothing mapped and the previous version serving.
func (e *Engine) load(name string, art *mmap.Artifact, verify bool) (info ModelInfo, err error) {
	defer func() {
		if err != nil && art != nil {
			art.Release()
		}
	}()
	if verify {
		if err = art.Verify(); err != nil {
			return ModelInfo{}, err
		}
	}
	s, model, views, err := scorerFor(art.V2Artifact)
	if err != nil {
		return ModelInfo{}, err
	}
	if views && verify {
		// The deep O(n) table scan CompiledFromArtifact defers to keep a
		// trusted load O(1) in artifact size; a thaw has run its own.
		if err = s.(*MicroScorer).c.ValidateTables(); err != nil {
			return ModelInfo{}, err
		}
	}
	if !views {
		art.Release()
		art = nil
	}
	return e.publish(cmp.Or(canonical(name), model), s, "snapshot", art)
}

// scorerFor is the one micro-vs-macro dispatch: it builds the serving
// scorer of a v2 artifact through the kind's constructor and returns it
// with the canonical model name and whether its tables view the
// artifact's bytes — true only for the micro model; a click model is
// thawed, copied out of them.
func scorerFor(a *snapshot.V2Artifact) (s Scorer, model string, views bool, err error) {
	model = canonical(a.ModelName)
	if model == NameMicro {
		c, err := core.CompiledFromArtifact(a)
		if err != nil {
			return nil, "", false, err
		}
		return NewCompiledMicroScorer(c), model, true, nil
	}
	m, err := clickmodel.FromArtifact(a)
	if err != nil {
		return nil, "", false, err
	}
	return NewClickModelScorer(m), model, false, nil
}

// SaveSnapshot writes the model a reference resolves to ("pbm",
// "pbm@2", "micro", empty = engine default) as a v2 artifact: the
// model's own Save, or, for a micro model served from its artifact, the
// sections it serves.
func (e *Engine) SaveSnapshot(ref string, w io.Writer) error {
	_, _, mv, err := e.resolvePinned(ref)
	if err != nil {
		return err
	}
	if mv.art != nil {
		defer mv.art.Release()
	}
	switch t := mv.scorer.(type) {
	case *ClickModelScorer:
		return t.M.Save(w)
	case *MicroScorer:
		if m := t.c.Source(); m != nil {
			return m.Save(w)
		}
		return t.c.SaveV2(w)
	case interface{ Save(io.Writer) error }:
		return t.Save(w)
	}
	return fmt.Errorf("engine: scorer %q is not snapshot-serializable", ref)
}
