package core

import (
	"bytes"
	"math"

	"repro/internal/snapshot"
	"repro/internal/textproc"
)

// ClampRel exposes the relevance clamp to the external parity tests,
// which live in package core_test so they can import the reference
// implementation (coreref imports core).
var ClampRel = clampRel

// LoadCompiled is the round trip the snapshot tests hold Save to: parse
// the artifact, verify its section CRCs, wrap its views and run the deep
// table checks, as a verified engine load does.
func LoadCompiled(data []byte) (*CompiledModel, error) {
	a, err := snapshot.ParseV2(data)
	if err != nil {
		return nil, err
	}
	if err := a.VerifySections(); err != nil {
		return nil, err
	}
	c, err := CompiledFromArtifact(a)
	if err != nil {
		return nil, err
	}
	if err := c.ValidateTables(); err != nil {
		return nil, err
	}
	return c, nil
}

// VocabRel lists a compiled model's vocabulary: each term and the bits of
// its clamped relevance. The terms are read back from the vocabulary's
// own sections.
func VocabRel(c *CompiledModel) map[string]uint64 {
	w := snapshot.NewV2Writer("vocab")
	c.vocab.WriteSections(w, v2TagVocab)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		panic(err)
	}
	a, err := snapshot.ParseV2(buf.Bytes())
	if err != nil {
		panic(err)
	}
	terms, err := textproc.ReadTerms(a, v2TagVocab)
	if err != nil {
		panic(err)
	}
	out := make(map[string]uint64, len(terms))
	for id, term := range terms {
		out[term] = math.Float64bits(c.rel[id])
	}
	return out
}
