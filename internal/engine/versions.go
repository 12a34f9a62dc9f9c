package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/clickmodel"
	"repro/internal/core"
	"repro/internal/mmap"
	"repro/internal/obs"
)

// scorerTable is one immutable generation of the engine's model table.
// Writers clone-and-replace; readers treat everything reachable from
// it as read-only.
//
//mb:immutable
type scorerTable struct {
	entries map[string]*modelEntry
}

// modelEntry is the version history of one model name. Immutable once
// published (writers clone the entry they modify).
//
//mb:immutable
type modelEntry struct {
	latest   int // version currently served by bare-name requests
	maxVer   int // highest version ever assigned under this name
	versions map[int]modelVersion
}

// modelVersion is one installed scorer plus its metadata. art is
// non-nil for scorers whose tables view a mapped v2 artifact: the
// version table holds the artifact's owner reference, score paths pin
// it (Retain/Release) around use, and the prune in installLocked drops
// the owner reference — the mapping is unmapped only when the last
// pinned reader drains.
//
//mb:immutable
type modelVersion struct {
	scorer Scorer
	info   ModelInfo
	art    *mmap.Artifact

	// ident names this version in the engine's snippet memo: assigned at
	// install from a counter of this engine's own, so no two versions of
	// any name share one and none is an address. A
	// rollback serves the same version under the same identity; whatever
	// the memo still holds of it is still right.
	ident uint64

	// ctr is the live predicted-CTR distribution of this version
	// (micro-CTR units), allocated at install when the engine carries
	// an observer; the pointed-to histogram mutates through atomics,
	// the pointer itself never changes after publish. base pins the
	// predecessor version's distribution at publish time — the drift
	// baseline — and baseVer records which version it came from.
	ctr     *obs.Histogram
	base    *obs.Snapshot
	baseVer int
}

// ModelInfo describes one installed model version — the engine's
// Models() metadata and the wire shape of GET /v1/models.
type ModelInfo struct {
	// Name is the canonical scorer name.
	Name string `json:"name"`
	// Version is the install counter under this name (1-based,
	// monotonic; never reused even after Rollback).
	Version int `json:"version"`
	// Latest reports whether bare-name requests resolve to this version.
	Latest bool `json:"latest"`
	// Params is the fitted parameter count (0 when unknown).
	Params int `json:"params"`
	// Source records how the version arrived: "fit", "register" or
	// "snapshot".
	Source string `json:"source"`
	// FittedAt is the install time (UTC).
	FittedAt time.Time `json:"fitted_at"`
}

// Ref is the version-addressed name of this model ("pbm@3").
func (mi ModelInfo) Ref() string {
	return mi.Name + "@" + strconv.Itoa(mi.Version)
}

// parseRef splits a model reference into canonical name and pinned
// version: "pbm" → ("pbm", 0), "pbm@3" → ("pbm", 3). Version 0 means
// "latest".
func parseRef(ref string) (name string, version int, err error) {
	name = canonical(ref)
	at := strings.LastIndexByte(name, '@')
	if at < 0 {
		return name, 0, nil
	}
	v, convErr := strconv.Atoi(strings.TrimSpace(name[at+1:]))
	if convErr != nil || v < 1 || at == 0 {
		return "", 0, fmt.Errorf("%w: bad reference %q (want name or name@version)", ErrNoModel, ref)
	}
	return strings.TrimSpace(name[:at]), v, nil
}

// requestModel is the canonical name a request will resolve to,
// without resolving: used to stamp responses that never reach a scorer
// (cancellation) so Response.Model is populated even on error.
func (e *Engine) requestModel(ref string) string {
	name, _, err := parseRef(ref)
	if err != nil {
		return canonical(ref)
	}
	if name == "" {
		if dn, _, derr := parseRef(e.defaultModel); derr == nil && dn != "" {
			return dn
		}
		return e.defaultModel
	}
	return name
}

// installLocked publishes a new version of name serving s. Caller
// holds e.mu. art, when non-nil, is the mapped artifact backing the
// scorer; the table takes over its owner reference.
func (e *Engine) installLocked(name string, s Scorer, source string, art *mmap.Artifact) ModelInfo {
	cur := e.tab.Load()
	next := &scorerTable{entries: make(map[string]*modelEntry, len(cur.entries)+1)}
	for k, v := range cur.entries {
		next.entries[k] = v
	}

	ent := &modelEntry{versions: map[int]modelVersion{}}
	prevLatest := 0
	if old := cur.entries[name]; old != nil {
		ent.maxVer = old.maxVer
		prevLatest = old.latest
		for v, mv := range old.versions {
			ent.versions[v] = mv
		}
	}
	ent.maxVer++
	ent.latest = ent.maxVer
	info := ModelInfo{
		Name:     name,
		Version:  ent.maxVer,
		Params:   scorerParams(s),
		Source:   source,
		FittedAt: time.Now().UTC(),
	}
	e.lastIdent++
	nv := modelVersion{scorer: s, info: info, art: art, ident: e.lastIdent}
	if e.obs != nil {
		// Observed engines track each version's predicted-CTR
		// distribution, and pin the outgoing serving version's live
		// distribution as the newcomer's drift baseline: "does the new
		// version predict CTRs shaped like what we were just serving?"
		// is exactly the question /healthz answers after an online
		// publish. A predecessor with no recorded scores pins nothing —
		// no evidence is not a baseline.
		nv.ctr = &obs.Histogram{}
		if prev, ok := ent.versions[prevLatest]; ok && prev.ctr != nil && prev.ctr.Count() > 0 {
			base := prev.ctr.Snapshot()
			nv.base = &base
			nv.baseVer = prevLatest
		}
	}
	ent.versions[ent.maxVer] = nv

	var pruned []*mmap.Artifact
	if e.keep > 0 && len(ent.versions) > e.keep {
		vers := make([]int, 0, len(ent.versions))
		for v := range ent.versions {
			vers = append(vers, v)
		}
		sort.Ints(vers)
		for _, v := range vers[:len(vers)-e.keep] {
			if v != ent.latest {
				// Pruning runs once per version: entry clones share
				// modelVersion values, but only this canonical
				// (mu-serialised) history deletes.
				if mv := ent.versions[v]; mv.art != nil {
					pruned = append(pruned, mv.art)
				}
				delete(ent.versions, v)
			}
		}
	}

	next.entries[name] = ent
	e.tab.Store(next)
	// Dropping a mapped version surrenders the table's owner reference —
	// after the table without it is published, never before: a rollback
	// can leave the version being pruned as the one bare names resolve
	// to, and a reader that found it still served by the current table
	// but already drained would burn its retries inside this call.
	// In-flight requests that pinned the artifact keep the mapping alive
	// until they Release; requests that resolved it from an older table
	// generation but have not pinned yet fail Retain and re-resolve
	// against a table that no longer has it.
	for _, art := range pruned {
		art.Release()
	}
	info.Latest = true // the stored copy leaves Latest to Models(), which computes it per table generation
	return info
}

// publish validates the name and, under the writer lock, swaps in a
// table that serves s as the next version of it — the one point every
// route to an installed version passes. Names arrive from the wire
// (the admin load endpoint), so a bad one is an error, not a panic.
// art, when non-nil, is the artifact s's tables view: a successful
// publish takes over the caller's reference to it, a refused one
// leaves that reference with the caller.
func (e *Engine) publish(name string, s Scorer, source string, art *mmap.Artifact) (ModelInfo, error) {
	key := canonical(name)
	if key == "" || s == nil {
		return ModelInfo{}, fmt.Errorf("engine: install needs a name and a scorer")
	}
	if strings.ContainsRune(key, '@') {
		return ModelInfo{}, fmt.Errorf("engine: model name %q must not contain '@' (reserved for version references)", name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.installLocked(key, s, source, art), nil
}

// SourceOnline is the Models() provenance tag of versions published by
// the online learning loop (internal/stream).
const SourceOnline = "online"

// Install publishes s as a new version under name and returns its
// metadata; source is the provenance tag shown as ModelInfo.Source
// ("register" for scorers wired in by code, SourceOnline for the
// learner's publishes). Earlier versions stay addressable as
// name@version, subject to WithKeepVersions pruning. An empty name, a
// name containing '@' and a nil scorer are refused with the table
// unchanged. Wrap a fitted model first: NewClickModelScorer for a
// click model (conventionally under its own Name), NewMicroScorer for
// the micro model under NameMicro.
func (e *Engine) Install(name string, s Scorer, source string) (ModelInfo, error) {
	return e.publish(name, s, source, nil)
}

// UseMicro installs a micro-browsing model as the NameMicro scorer.
func (e *Engine) UseMicro(m *core.Model) ModelInfo {
	info, _ := e.Install(NameMicro, NewMicroScorer(m), "register") // a fixed name and a non-nil scorer are never refused
	return info
}

// Fit trains the named registry model on a compiled session log
// through clickmodel.Train (iterations <= 0 keeps the model's EM
// default), installs it as a new version under the model's own name,
// and returns the fitted instance (e.g. for offline evaluation with
// clickmodel.Evaluate or snapshotting with Save). Compile a log once to
// fit several models on it.
func (e *Engine) Fit(name string, c *clickmodel.CompiledLog, iterations int) (clickmodel.Model, error) {
	m, err := clickmodel.Train(name, iterations, c, nil)
	if err != nil {
		return nil, err
	}
	if _, err := e.Install(m.Name(), NewClickModelScorer(m), "fit"); err != nil {
		return nil, err
	}
	return m, nil
}

// Models returns the metadata of every installed model version,
// sorted by name then version.
func (e *Engine) Models() []ModelInfo {
	t := e.tab.Load()
	out := make([]ModelInfo, 0, len(t.entries))
	for _, ent := range t.entries {
		for v, mv := range ent.versions {
			info := mv.info
			info.Latest = v == ent.latest
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version < out[j].Version
	})
	return out
}

// ModelCount reports the number of installed model names from one
// atomic table load. It is the allocation-free counter behind
// GET /healthz; ModelNames sorts a freshly allocated slice, which a
// liveness probe called at monitoring frequency has no use for.
func (e *Engine) ModelCount() int {
	return len(e.tab.Load().entries)
}

// ModelNames returns the installed model names in sorted order.
func (e *Engine) ModelNames() []string {
	t := e.tab.Load()
	names := make([]string, 0, len(t.entries))
	for name := range t.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Rollback moves a model's latest pointer to the highest version below
// the current one, so bare-name requests are served by the previous
// model while the rolled-back version stays addressable by name@version.
// Returns the metadata of the newly-latest version.
func (e *Engine) Rollback(name string) (ModelInfo, error) {
	key := canonical(name)
	e.mu.Lock()
	defer e.mu.Unlock()

	cur := e.tab.Load()
	old := cur.entries[key]
	if old == nil {
		return ModelInfo{}, fmt.Errorf("engine: rollback of unknown model %q (installed: %s)",
			name, strings.Join(e.ModelNames(), ", "))
	}
	prev := 0
	for v := range old.versions {
		if v < old.latest && v > prev {
			prev = v
		}
	}
	if prev == 0 {
		return ModelInfo{}, fmt.Errorf("engine: model %q has no version before %d to roll back to", name, old.latest)
	}

	next := &scorerTable{entries: make(map[string]*modelEntry, len(cur.entries))}
	for k, v := range cur.entries {
		next.entries[k] = v
	}
	ent := &modelEntry{latest: prev, maxVer: old.maxVer, versions: make(map[int]modelVersion, len(old.versions))}
	for v, mv := range old.versions {
		ent.versions[v] = mv
	}
	next.entries[key] = ent
	e.tab.Store(next)

	info := ent.versions[prev].info
	info.Latest = true
	return info, nil
}

// scorerParams extracts the fitted-parameter count for Models()
// metadata; unknown scorer types report 0.
func scorerParams(s Scorer) int {
	switch t := s.(type) {
	case *ClickModelScorer:
		return clickmodel.ParamCount(t.M)
	case *MicroScorer:
		return t.c.NumParams()
	case interface{ NumParams() int }:
		return t.NumParams()
	}
	return 0
}

// Stat resolves a model reference ("pbm", "pbm@2", empty = engine
// default) and returns the metadata of the version it would score
// with — the cheap existence-and-version probe behind conditional
// snapshot exports (ETag / If-None-Match).
func (e *Engine) Stat(ref string) (ModelInfo, error) {
	name, version, mv, err := e.resolve(ref)
	if err != nil {
		return ModelInfo{}, err
	}
	info := mv.info
	if t := e.tab.Load(); t.entries[name] != nil {
		info.Latest = t.entries[name].latest == version
	}
	return info, nil
}

// resolve maps a request's model reference to an installed version from
// one atomic load of the table — no locks on the read path. The micro
// scorer is built (and installed) on demand, an empty model under full
// attention; registry click-model names that were never fitted
// are rejected with a hint rather than silently scored from priors.
func (e *Engine) resolve(ref string) (name string, version int, mv modelVersion, err error) {
	name, version, err = parseRef(ref)
	if err != nil {
		return "", 0, modelVersion{}, err
	}
	if name == "" {
		// The default may itself be a versioned reference
		// (WithDefaultModel("pbm@2")); honour the pin.
		name, version, err = parseRef(e.defaultModel)
		if err != nil {
			return "", 0, modelVersion{}, fmt.Errorf("engine: bad default model: %w", err)
		}
	}
	t := e.tab.Load()
	if ent := t.entries[name]; ent != nil {
		v := version
		if v == 0 {
			v = ent.latest
		}
		if mv, ok := ent.versions[v]; ok {
			return name, v, mv, nil
		}
		return name, 0, modelVersion{}, fmt.Errorf("%w: %q has no installed version %d (latest is %d)", ErrNoModel, name, version, ent.latest)
	}
	if name == NameMicro && version == 0 {
		// Materialise the default micro scorer on first use.
		e.mu.Lock()
		t = e.tab.Load() // re-check: another writer may have won
		if ent := t.entries[name]; ent != nil {
			mv := ent.versions[ent.latest]
			e.mu.Unlock()
			return name, ent.latest, mv, nil
		}
		s := NewMicroScorer(core.NewModel(nil))
		info := e.installLocked(name, s, "register", nil)
		// Return the stored version, not a reconstruction: the install
		// may have attached observation state (the CTR histogram) that a
		// fresh literal would silently lack.
		mv := e.tab.Load().entries[name].versions[info.Version]
		e.mu.Unlock()
		return name, info.Version, mv, nil
	}
	if _, newErr := clickmodel.New(name); newErr == nil {
		return name, 0, modelVersion{}, fmt.Errorf("%w: click model %q is known but not fitted; call Fit(%q, log, iterations) or LoadSnapshot first", ErrNoModel, name, name)
	}
	return name, 0, modelVersion{}, fmt.Errorf("%w: unknown model %q (installed: %s; registry: %s)",
		ErrNoModel, ref, strings.Join(e.ModelNames(), ", "), strings.Join(clickmodel.Names(), ", "))
}

// resolvePinned resolves a reference and pins its mapped artifact (when
// it has one) for the caller, who must Release it after scoring. A
// failed pin means a hot swap pruned the version between the table load
// and the Retain — the fresh table is re-resolved; the retry is bounded
// because each attempt reads a strictly newer table generation.
func (e *Engine) resolvePinned(ref string) (name string, version int, mv modelVersion, err error) {
	for attempt := 0; ; attempt++ {
		name, version, mv, err = e.resolve(ref)
		if err != nil || mv.art == nil || mv.art.Retain() {
			return
		}
		if attempt == 3 {
			return name, 0, modelVersion{}, fmt.Errorf("%w: %q version %d was unloaded mid-request", ErrNoModel, name, version)
		}
	}
}

// resolution is one memoised (reference, model version) pair and the
// CTR samples its version has not been given yet.
type resolution struct {
	ref  string
	name string
	mv   modelVersion
	ctr  obs.Tally // recorded only when mv.ctr is non-nil
}

// release hands the slot's tallied CTR samples to its version and drops
// its artifact pin, if any.
//
//mb:noalloc
func (r *resolution) release() {
	if r.mv.ctr != nil {
		r.mv.ctr.Absorb(&r.ctr)
	}
	if r.mv.art != nil {
		r.mv.art.Release()
		r.mv.art = nil
	}
}
