// Package engine is the unified CTR-scoring surface of this repository:
// one request/response API over both browsing levels of the paper — the
// macro click models of Section II (internal/clickmodel) and the
// micro-browsing model of Section III (internal/core).
//
// The two levels estimate the same quantity, the probability of a
// click, from different evidence: click models from a result's position
// within a session, the micro model from the snippet text itself. The
// Scorer interface abstracts over both, and the Engine adds what a
// serving system needs on top of a single scorer:
//
//   - name-based model selection backed by the clickmodel registry, so
//     binaries pick models from config strings (-model pbm);
//   - immutable, versioned model installs: Install — and Fit, UseMicro
//     and the LoadSnapshot family, which end in the same publish —
//     puts a new version of the named scorer into a copy-on-write
//     table behind an atomic pointer, so the read path
//     (ScoreCTR/ScoreBatch) is lock-free and in-flight requests always
//     see a consistent table. Requests address "name" (the latest
//     version) or "name@3" (a pinned version); Rollback moves the
//     latest pointer back without discarding the newer version.
//   - snapshot artifacts: SaveSnapshot writes an installed model's
//     fitted parameters as a self-describing binary artifact
//     (internal/snapshot) and LoadSnapshot hot-swaps one in — the
//     fit-offline / serve-online split (cmd/microserve is the HTTP
//     front over exactly this surface);
//   - batch scoring on the goroutine that received the batch: ScoreBatch
//     runs a scoring strand on its caller and, for batches large enough
//     to repay a wake-up, helper strands beside it under one
//     engine-wide cap (WithWorkers), with per-request error reporting
//     and cooperative context cancellation;
//   - a bounded memo of micro answers (memo.go): a snippet the version
//     being served has already scored is answered without running the
//     kernel, bit for bit what the kernel said.
//
// The facade package re-exports the engine as the library's primary
// public API; see the repository README for the serving walkthrough
// and DESIGN.md for the system inventory.
package engine

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clickmodel"
	"repro/internal/core"
	"repro/internal/mmap"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// NameMicro is the reserved scorer name of the micro-browsing model.
const NameMicro = "micro"

// Engine routes scoring requests to named, versioned scorers and
// scores batches on their callers, helped by a capped number of extra
// strands. Create one with New; the zero value is unusable.
//
// An Engine is safe for concurrent use. Installing scorers (Install,
// Fit, LoadSnapshot) or rolling one back while batches are in flight
// is allowed: writers publish a fresh immutable scorer table through
// an atomic pointer, so readers never block and each request resolves
// against one consistent table.
type Engine struct {
	workers      int
	attention    core.Attention
	defaultModel string
	keep         int
	obs          *Observer // nil = uninstrumented (see WithObserver)

	strands atomic.Int32 // batch-scoring strands in flight, callers and helpers

	// memo answers a micro request the live version has already scored
	// (memo.go). It is the one thing strands share besides the table.
	memo *snippetMemo

	mu        sync.Mutex                  // serialises table writers only
	tab       atomic.Pointer[scorerTable] // read path loads this, lock-free
	lastIdent uint64                      // identity of the newest installed version; under mu
}

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

// Option configures an Engine at construction time.
type Option func(*Engine)

// WithWorkers sets the engine-wide cap on batch-scoring strands
// (default runtime.GOMAXPROCS(0); values < 1 are treated as 1). The
// goroutine that calls ScoreBatch always scores, whatever the cap; a
// helper strand is woken only while fewer than this many strands —
// callers and helpers of every batch the engine is running, counted
// together — are in flight. It is the engine's pool size, not a
// per-batch multiplier: n concurrent callers wake at most workers-1
// helpers between them, and none once n reaches the cap.
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n < 1 {
			n = 1
		}
		e.workers = n
	}
}

// WithAttention sets the attention layer used when the engine builds
// its own default micro-browsing scorer (i.e. when no scorer was
// explicitly installed under NameMicro). nil keeps the degenerate
// FullAttention bag-of-terms behaviour.
func WithAttention(att core.Attention) Option {
	return func(e *Engine) { e.attention = att }
}

// WithDefaultModel sets the scorer used by requests that leave
// Request.Model empty (default NameMicro).
func WithDefaultModel(name string) Option {
	return func(e *Engine) { e.defaultModel = canonical(name) }
}

// WithKeepVersions bounds the version history kept per model name
// (default 8). Older versions beyond the bound are dropped on install;
// n <= 0 keeps every version. The served (latest) version is never
// dropped.
func WithKeepVersions(n int) Option {
	return func(e *Engine) { e.keep = n }
}

// defaultKeepVersions bounds per-name history so a serving process
// refitting on live traffic does not accumulate old parameter tables
// without bound.
const defaultKeepVersions = 8

// New returns an Engine with the given options applied.
func New(opts ...Option) *Engine {
	e := &Engine{
		workers:      runtime.GOMAXPROCS(0),
		defaultModel: NameMicro,
		keep:         defaultKeepVersions,
		memo:         newSnippetMemo(memoShardCount(runtime.GOMAXPROCS(0))),
	}
	e.tab.Store(&scorerTable{entries: map[string]*modelEntry{}})
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// canonical normalises scorer names: registry names are case- and
// whitespace-insensitive.
func canonical(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
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

// FitOption tunes a freshly constructed registry model before Fit
// trains it.
type FitOption func(clickmodel.Model)

// Iterations sets the EM iteration count on models that expose one
// (clickmodel.IterativeModel); other models ignore it. Values <= 0
// keep the model default.
func Iterations(n int) FitOption {
	return func(m clickmodel.Model) {
		if n <= 0 {
			return
		}
		if it, ok := m.(clickmodel.IterativeModel); ok {
			it.SetIterations(n)
		}
	}
}

// Fit constructs the named model from the clickmodel registry, applies
// the options, trains it on the session log, installs it as a new
// version, and returns the fitted instance (e.g. for offline
// evaluation with clickmodel.Evaluate or snapshotting with Save).
func (e *Engine) Fit(name string, sessions []clickmodel.Session, opts ...FitOption) (clickmodel.Model, error) {
	return e.fit(name, opts, func(m clickmodel.Model) error { return m.Fit(sessions) })
}

// FitCompiled is Fit over a pre-compiled session log: when several
// models train on one log, Compile once and the per-model interning
// pass disappears. Models without a FitLog path fall back to the
// compiled log's source sessions.
func (e *Engine) FitCompiled(name string, c *clickmodel.CompiledLog, opts ...FitOption) (clickmodel.Model, error) {
	if c == nil {
		return nil, fmt.Errorf("engine: FitCompiled(%q) on a nil compiled log", name)
	}
	return e.fit(name, opts, func(m clickmodel.Model) error {
		if lf, ok := m.(clickmodel.LogFitter); ok {
			return lf.FitLog(c)
		}
		return m.Fit(c.Sessions())
	})
}

// fit is the body Fit and FitCompiled share: registry lookup, options,
// the given training step, Install under the model's own name.
func (e *Engine) fit(name string, opts []FitOption, train func(clickmodel.Model) error) (clickmodel.Model, error) {
	m, err := clickmodel.New(name)
	if err != nil {
		return nil, err
	}
	for _, opt := range opts {
		opt(m)
	}
	if err := train(m); err != nil {
		return nil, fmt.Errorf("engine: fitting %s: %w", m.Name(), err)
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

// LoadSnapshot reads a model artifact (written by SaveSnapshot, a
// model's own Save, or cmd/clickmodelfit -o) from a stream and installs
// it as a new version under name; an empty name installs under the
// model name recorded in the artifact. The swap is atomic: requests in
// flight keep the version they resolved, later requests see the new
// one.
//
// The bytes are read into anonymous memory and served from there: a v2
// artifact ("MBS2") as it stands, a v1 one ("MBSN") after the importer
// has turned it into the v2 artifact its model writes today. A stream's
// provenance is unknown, so the bytes are checked like
// LoadSnapshotFileVerified checks a file's. For a v2 file on disk use
// one of the file loads, which map the file instead of copying it.
func (e *Engine) LoadSnapshot(name string, r io.Reader) (ModelInfo, error) {
	return e.load(name, r, func(rest io.Reader) (*mmap.Artifact, error) {
		data, err := io.ReadAll(rest)
		if err != nil {
			return nil, err
		}
		return mmap.FromBytes(data)
	}, true)
}

// LoadSnapshotFile installs a model artifact from disk. A v2 artifact
// is mapped read-only (O(1) in artifact size — the tables are served
// straight off the page cache) without a checksum pass: a file the
// operator names at start-up is trusted the way any loaded code is. A
// v1 artifact is imported from the file.
func (e *Engine) LoadSnapshotFile(name, path string) (ModelInfo, error) {
	return e.loadFile(name, path, false)
}

// LoadSnapshotFileVerified is LoadSnapshotFile for a file of doubtful
// provenance: before anything is installed, every v2 section's CRC-32C
// is checked (one sequential read of the file) and the probe tables
// are scanned. It is what the admin load endpoint calls.
func (e *Engine) LoadSnapshotFileVerified(name, path string) (ModelInfo, error) {
	return e.loadFile(name, path, true)
}

// loadFile is load over a file: a v2 file is mapped, v1 bytes are
// imported from it.
func (e *Engine) loadFile(name, path string, verify bool) (ModelInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return ModelInfo{}, err
	}
	defer f.Close()
	return e.load(name, f, func(io.Reader) (*mmap.Artifact, error) { return mmap.Open(path) }, verify)
}

// load is the one route from artifact bytes to a published version:
// sniff the magic, build the scorer, check it when the provenance is
// not trusted, publish. r supplies the bytes; for a v2 artifact, v2
// turns what is left of them into the refcounted artifact the scorer's
// tables will view (a file is mapped, a stream is read onto the heap).
// Anything else is read whole and handed to importV1, and the v2 bytes
// it returns take the same route from the heap. From the moment the
// artifact exists, load owns that reference: a scorer that views it
// takes it into the version table, a thawed one (built by copying)
// lets it go at once, and every path that does not publish drops it,
// so a refused load leaves nothing mapped and the previous version
// serving.
func (e *Engine) load(name string, r io.Reader, v2 func(rest io.Reader) (*mmap.Artifact, error), verify bool) (info ModelInfo, err error) {
	br := bufio.NewReader(r)
	if magic, _ := br.Peek(4); !snapshot.IsV2(magic) {
		data, err := io.ReadAll(br)
		if err != nil {
			return ModelInfo{}, err
		}
		if data, err = importV1(data); err != nil {
			return ModelInfo{}, err
		}
		v2 = func(io.Reader) (*mmap.Artifact, error) { return mmap.FromBytes(data) }
	}
	art, err := v2(br)
	if err != nil {
		return ModelInfo{}, err
	}
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
	if verify {
		// The deep O(n) table scan the constructors defer to keep a
		// trusted load O(1) in artifact size.
		if err = validateScorerTables(s); err != nil {
			return ModelInfo{}, err
		}
	}
	if !views {
		art.Release()
		art = nil
	}
	return e.publish(cmp.Or(canonical(name), model), s, "snapshot", art)
}

// validateScorerTables runs the deep structural checks of an
// artifact-backed scorer's probe tables.
func validateScorerTables(s Scorer) error {
	switch t := s.(type) {
	case *MicroScorer:
		return t.c.ValidateTables()
	case *ClickModelScorer:
		if dv, ok := t.M.(interface{ ValidateTables() error }); ok {
			return dv.ValidateTables()
		}
	}
	return nil
}

// scorerFor is the one micro-vs-macro dispatch: it builds the serving
// scorer of a v2 artifact through the kind's constructor and returns it
// with the canonical model name and whether its tables view the
// artifact's bytes (the micro model, PBM and DBN) or were copied out.
func scorerFor(a *snapshot.V2Artifact) (s Scorer, model string, views bool, err error) {
	model = canonical(a.ModelName)
	if model == NameMicro {
		c, err := core.CompiledFromArtifact(a)
		if err != nil {
			return nil, "", false, err
		}
		return NewCompiledMicroScorer(c), model, true, nil
	}
	m, views, err := clickmodel.FromArtifact(a)
	if err != nil {
		return nil, "", false, err
	}
	return NewClickModelScorer(m), model, views, nil
}

// importV1 turns a v1 artifact into the v2 artifact its model writes
// today: the payload is decoded into the fitted form and Saved. It is
// the one way into the v1 decoders, and load its one caller, so every
// route that accepts v1 bytes — LoadSnapshot, the two file loads, the
// admin load endpoint, clickmodelfit -conv — reads them here.
func importV1(data []byte) ([]byte, error) {
	name, payload, err := snapshot.OpenV1(data)
	if err != nil {
		return nil, err
	}
	var m interface{ Save(io.Writer) error }
	if canonical(name) == NameMicro {
		m, err = core.DecodeV1(payload)
	} else {
		var cm clickmodel.Model
		if cm, err = clickmodel.DecodeV1(name, payload); err == nil {
			m = cm.(clickmodel.Snapshotter)
		}
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SaveSnapshot writes the model a reference resolves to ("pbm",
// "pbm@2", "micro", empty = engine default) as a v2 artifact. A fitted
// model writes its own Save; an artifact-backed one re-emits the
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
		if sn, ok := t.M.(clickmodel.Snapshotter); ok {
			return sn.Save(w)
		}
		return fmt.Errorf("engine: click model %q does not implement clickmodel.Snapshotter", t.M.Name())
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
// scorer is built (and installed) on demand from the engine's
// attention option; registry click-model names that were never fitted
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
		s := NewMicroScorer(core.NewModel(e.attention))
		info := e.installLocked(name, s, "register", nil)
		// Return the stored version, not a reconstruction: the install
		// may have attached observation state (the CTR histogram) that a
		// fresh literal would silently lack.
		mv := e.tab.Load().entries[name].versions[info.Version]
		e.mu.Unlock()
		return name, info.Version, mv, nil
	}
	if _, lookupErr := clickmodel.Lookup(name); lookupErr == nil {
		return name, 0, modelVersion{}, fmt.Errorf("%w: click model %q is known but not fitted; call Fit(%q, sessions) or LoadSnapshot first", ErrNoModel, name, name)
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

// ScoreCTR scores one request through the scorer its Model field
// references (empty = the engine default; "name@version" pins a
// version). The returned Response carries the request ID, resolved
// model name and serving version even on error.
func (e *Engine) ScoreCTR(ctx context.Context, req Request) (Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		resp := Response{ID: req.ID, Model: e.requestModel(req.Model)}
		resp.setErr(err)
		return resp, err
	}
	name, _, mv, err := e.resolvePinnedTimed(req.Model)
	if err != nil {
		resp := Response{ID: req.ID, Model: name}
		resp.setErr(err)
		return resp, err
	}
	if mv.art != nil {
		defer mv.art.Release()
	}
	sc := e.getScratch()
	defer e.putScratch(sc)
	var resp Response
	if e.obs == nil {
		err = e.scoreResolved(ctx, &req, name, &mv, sc, &resp)
		return resp, err
	}
	// Single requests are timed unconditionally: the HTTP score path
	// already pays JSON costs orders of magnitude above two time.Now
	// calls. Batch strands sample instead (see scoreOne), and tally
	// their CTR samples where this records its one.
	t0 := time.Now()
	err = e.scoreResolved(ctx, &req, name, &mv, sc, &resp)
	e.obs.Score.RecordSince(t0)
	if err == nil && mv.ctr != nil {
		mv.ctr.Record(obs.CTRUnits(resp.CTR))
	}
	return resp, err
}

// scoreResolved is the post-resolution half of ScoreCTR: it scores
// *req with the resolved version into *out and overwrites every field
// of *out. The built-in scorers run with the caller's scratch
// (per-strand in batches, pooled for single requests) and take no
// context: they run in about a microsecond, so the engine checks for
// cancellation around them (once per request in ScoreCTR, once per
// claimed chunk in a strand) instead of paying cancelCtx.Err's mutex
// inside every call. Third-party Scorer implementations take their
// public path, context included. The switch names the built-in types
// rather than calling through an interface because a pointer handed
// to an interface method escapes: ScoreCTR's request and response
// would cost two heap allocations per call. It records no CTR sample;
// ScoreCTR and scoreOne do.
//
//mb:noalloc
func (e *Engine) scoreResolved(ctx context.Context, req *Request, name string, mv *modelVersion, sc *scratch, out *Response) error {
	var err error
	switch s := mv.scorer.(type) {
	case *MicroScorer:
		sc.ident = mv.ident
		err = s.scoreCTR(req, sc, out)
	case *ClickModelScorer:
		err = s.scoreCTR(req, sc, out)
	default:
		*out, err = mv.scorer.ScoreCTR(ctx, *req)
	}
	out.ID = req.ID
	out.Model = name // canonical table key, whatever the scorer stamped
	out.ModelVersion = mv.info.Version
	out.setErr(err)
	return err
}

// minStrandBatch is the number of requests a batch must hold per
// scoring strand before a helper goroutine is woken for it: a batch of
// n requests runs on at most n/minStrandBatch strands, the caller's
// included. It is twice the break-even of requests that run the kernel,
// read off BenchmarkEngineScoreBatch's size sub-benches before the
// snippet memo existed (BENCH_engine.json at 36fe5a5; 2 vCPUs, ~1.3µs
// requests): with one helper forced, two strands first beat one on the
// wall clock between 128- and 192-request batches (172→180µs,
// 259→226µs) — a helper's share of 64 to 96 requests — and cost 35–40%
// more CPU per request there. A helper that is woken therefore takes
// over at least twice what waking it costs, and the 64-request frames
// of the serving protocols are scored where they arrive.
//
// It is too low for a batch the memo answers: at ~180ns a request the
// same sub-benches read 231 against 189 ns/req for two strands against
// one at 256 requests, and two only pull level near 4,096. A batch does
// not know its hit share before it is scored, so the constant stays
// where a batch of misses needs it; pricing it by what the first chunk
// observed is an open follow-up (CHANGES.md, PR 24).
const minStrandBatch = 128

// strandChunk is how many requests a strand claims per bump of the
// batch cursor: large enough that the shared cursor and the
// cancellation check cost nothing per request, small enough that the
// last strand to finish is at most one chunk behind the others.
const strandChunk = 16

// batchState is one scoring strand's memoised model resolutions.
// Batches overwhelmingly score one or two models — the mixed frames of
// a serving protocol alternate a click model and the micro model — so
// each strand keeps its last two successful resolutions: a repeated
// reference skips the ref parse, the table lookup and the timing,
// keeping the hot dispatch loop at a string compare or two per request.
// The cache lives for one batch only — a hot-swap lands no later than
// the next ScoreBatch call — and within it each reference answers from
// one version while it stays cached. Mapped versions are pinned once
// per cache fill, not per request, so the artifact refcount is off the
// per-request path; a pin is released when its slot is evicted or the
// strand drains (release()).
//
// The version's predicted-CTR histogram is off that path too: each slot
// tallies its version's samples in the strand's own memory and hands
// them over in release, so a request writes no cache line that another
// strand writes. A scrape therefore lags by at most the batch each
// strand has in hand, and a batch's samples are all in the histogram by
// the time ScoreBatchInto returns.
type batchState struct {
	resolution            // the slot the first resolution fills
	other      resolution // the second slot
	lastOther  bool       // the last request used other: a miss evicts the slot it did not use
	n          uint32     // requests scored this batch, the sampling clock (observed engines)
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

// release hands over the strand's CTR samples and drops its artifact
// pins.
//
//mb:noalloc
func (bs *batchState) release() {
	bs.resolution.release()
	bs.other.release()
}

// scoreOne scores one batch element into *out through the strand's
// memoised resolutions.
//
//mb:noalloc
func (e *Engine) scoreOne(ctx context.Context, req *Request, out *Response, bs *batchState, sc *scratch) {
	r := &bs.resolution
	switch {
	case r.mv.scorer != nil && req.Model == r.ref:
		bs.lastOther = false
	case bs.other.mv.scorer != nil && req.Model == bs.other.ref:
		r, bs.lastOther = &bs.other, true
	default:
		name, _, mv, err := e.resolvePinnedTimed(req.Model)
		if err != nil {
			*out = Response{ID: req.ID, Model: name}
			out.setErr(err)
			return
		}
		// Fill the first slot first, then evict the least recently used.
		if r.mv.scorer != nil && !bs.lastOther {
			r = &bs.other
		}
		r.release() // after the new pin: never drains a shared artifact
		r.ref, r.name, r.mv = req.Model, name, mv
		bs.lastOther = r == &bs.other
	}
	// Per-request timing is sampled 1-in-scoreSampleEvery per strand:
	// the compiled kernel scores in ~1µs, so unconditional timing would
	// be a measurable tax on exactly the path the histogram exists to
	// protect. The batch histogram (ScoreBatchInto) stays exact.
	var t0 time.Time
	if e.obs != nil {
		if bs.n++; bs.n&(scoreSampleEvery-1) == 0 {
			t0 = time.Now()
		}
	}
	err := e.scoreResolved(ctx, req, r.name, &r.mv, sc, out)
	if !t0.IsZero() {
		e.obs.Score.RecordSince(t0)
	}
	if err == nil && r.mv.ctr != nil {
		r.ctr.Record(obs.CTRUnits(out.CTR))
	}
}

// ScoreBatch scores every request and returns responses aligned with
// the input slice. The calling goroutine always scores: it runs the
// first scoring strand itself, and helper strands join it only when
// the batch holds at least minStrandBatch requests per strand and the
// engine-wide cap (WithWorkers) has room. A request that fails records
// its error in Response.Err without affecting its neighbours. When ctx
// is cancelled mid-batch, requests not yet claimed by a strand are
// returned with Err set to ctx.Err().
//
// Model references are resolved against the table as the batch runs
// (strands memoise repeated references), so a concurrent hot-swap may
// serve part of a batch from the old version and part from the new —
// each response's ModelVersion records which.
func (e *Engine) ScoreBatch(ctx context.Context, reqs []Request) []Response {
	return e.ScoreBatchInto(ctx, reqs, nil)
}

// ScoreBatchInto is ScoreBatch writing into a caller-provided response
// slice (reused when it has the capacity) — the allocation-free path of
// the binary protocol, whose per-connection loop recycles one response
// buffer across frames. Every element of the returned slice is
// overwritten; stale state in a recycled buffer is never observed.
func (e *Engine) ScoreBatchInto(ctx context.Context, reqs []Request, out []Response) []Response {
	if e.obs == nil {
		return e.scoreBatchInto(ctx, reqs, out)
	}
	// The split keeps timing off the uninstrumented path entirely and,
	// on the instrumented one, costs two time.Now calls per batch — no
	// deferred closure, which would put an allocation back on the
	// binary protocol's zero-alloc frame cycle.
	t0 := time.Now()
	out = e.scoreBatchInto(ctx, reqs, out)
	e.obs.Batch.RecordSince(t0)
	return out
}

// scoreBatchInto is the uninstrumented body of ScoreBatchInto.
func (e *Engine) scoreBatchInto(ctx context.Context, reqs []Request, out []Response) []Response {
	if ctx == nil {
		ctx = context.Background()
	}
	if cap(out) >= len(reqs) {
		out = out[:len(reqs)]
	} else {
		out = make([]Response, len(reqs))
	}
	if len(reqs) == 0 {
		return out
	}
	// Reserve this goroutine's strand slot plus as many helper slots as
	// the batch is worth. The counter may overshoot the cap for a moment
	// before the excess is handed back, which only ever makes a
	// concurrent batch claim fewer helpers, never more.
	helpers := max(len(reqs)/minStrandBatch-1, 0)
	if over := min(int(e.strands.Add(int32(1+helpers)))-e.workers, helpers); over > 0 {
		e.strands.Add(int32(-over))
		helpers -= over
	}
	if helpers == 0 {
		var cursor atomic.Int64
		e.strand(ctx, reqs, out, &cursor)
	} else {
		e.scoreBatchHelped(ctx, reqs, out, helpers)
	}
	return out
}

// scoreBatchHelped runs the caller's strand beside helper goroutines.
// It is its own frame so that the cursor the helpers share is
// heap-allocated only when there are helpers.
func (e *Engine) scoreBatchHelped(ctx context.Context, reqs []Request, out []Response, helpers int) {
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	wg.Add(helpers)
	for ; helpers > 0; helpers-- {
		go func() {
			defer wg.Done()
			e.strand(ctx, reqs, out, &cursor)
		}()
	}
	e.strand(ctx, reqs, out, &cursor)
	wg.Wait()
}

// strand is the one batch-scoring loop: claim the next strandChunk
// requests from the batch's cursor, score them, repeat until the
// cursor passes the end. The goroutine that called ScoreBatch runs it
// first, so no request waits for a wake-up; helpers run the same loop
// and one that starts late finds nothing left to claim. Cancellation
// is checked once per claimed chunk, and a cancelled batch is drained
// by this same loop: every chunk claimed after the cancellation is
// filled with the context's error, so each slot is written exactly
// once. The strand owns one scratch and one memoised resolution for
// its whole run and gives back its slot of the engine's cap on return.
//
//mb:noalloc
func (e *Engine) strand(ctx context.Context, reqs []Request, out []Response, cursor *atomic.Int64) {
	defer e.strands.Add(-1)
	sc := e.getScratch()
	defer e.putScratch(sc)
	var bs batchState
	defer bs.release()
	for {
		end := int(cursor.Add(strandChunk))
		start := end - strandChunk
		if start >= len(reqs) {
			return
		}
		if end > len(reqs) {
			end = len(reqs)
		}
		if err := ctx.Err(); err != nil {
			for i := start; i < end; i++ {
				out[i] = Response{ID: reqs[i].ID, Model: e.requestModel(reqs[i].Model)}
				out[i].setErr(err)
			}
			continue
		}
		for i := start; i < end; i++ {
			e.scoreOne(ctx, &reqs[i], &out[i], &bs, sc)
		}
	}
}
