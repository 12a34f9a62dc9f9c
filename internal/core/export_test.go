package core

// ClampRel exposes the relevance clamp to the external parity tests,
// which live in package core_test so they can import the reference
// implementation (coreref imports core).
var ClampRel = clampRel
