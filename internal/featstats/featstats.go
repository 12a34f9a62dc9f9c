// Package featstats implements the feature statistics database of
// Section V-C: for every feature observed across creative pairs in the
// corpus it tracks how often the creative containing (or sourcing) the
// feature had the higher serve weight.
//
// For each feature the database records the counts of the delta-sw random
// variable (+1 when the serve-weight difference favoured the feature, -1
// otherwise), estimates the Laplace-smoothed empirical probability
// p = P(delta-sw = +1), and exposes the odds ratio p/(1-p) — "the odds of
// the presence of the feature causing an increase in creative CTR". The
// log odds are what initialise the snippet classifier's weights.
//
// Feature keys are namespaced strings built by the Key helpers so that
// term, positioned-term, rewrite, rewrite-position and position features
// share one store without collisions.
package featstats

import (
	"fmt"
	"math"
	"strings"
)

// Stat holds the delta-sw counts for one feature.
type Stat struct {
	Pos float64 // observations with sw-diff > 0
	Neg float64 // observations with sw-diff < 0
}

// Count returns the total number of observations.
func (s Stat) Count() float64 { return s.Pos + s.Neg }

// DB is the feature statistics database. The zero value is unusable;
// call New.
type DB struct {
	// Smoothing is the Laplace count added to each side (default 1).
	Smoothing float64
	// Stats maps namespaced feature keys to their delta-sw counts.
	Stats map[string]Stat
}

// New returns an empty database with the given Laplace smoothing
// (values <= 0 become 1).
func New(smoothing float64) *DB {
	if smoothing <= 0 {
		smoothing = 1
	}
	return &DB{Smoothing: smoothing, Stats: make(map[string]Stat)}
}

// Observe records one delta-sw observation for the feature: swDiff > 0
// counts as +1, swDiff < 0 as -1 and exactly 0 is discarded (no
// information about direction).
func (db *DB) Observe(key string, swDiff float64) {
	if swDiff == 0 {
		return
	}
	s := db.Stats[key]
	if swDiff > 0 {
		s.Pos++
	} else {
		s.Neg++
	}
	db.Stats[key] = s
}

// P returns the Laplace-smoothed estimate of P(delta-sw = +1 | feature).
// Unobserved features return exactly 0.5.
func (db *DB) P(key string) float64 {
	s := db.Stats[key]
	return (s.Pos + db.Smoothing) / (s.Count() + 2*db.Smoothing)
}

// OddsRatio returns p/(1-p) for the feature — the statistic the paper
// records in the database.
func (db *DB) OddsRatio(key string) float64 {
	p := db.P(key)
	return p / (1 - p)
}

// LogOdds returns log(p/(1-p)), the natural initial weight for a
// logistic regression feature. Unobserved features return 0.
func (db *DB) LogOdds(key string) float64 {
	return math.Log(db.OddsRatio(key))
}

// LogOddsSmoothed is LogOdds with an explicit (usually stronger) Laplace
// count, overriding the database's own smoothing. Down-stream consumers
// use it to shrink low-evidence features toward zero: a feature seen a
// handful of times cannot earn a large initial weight.
func (db *DB) LogOddsSmoothed(key string, smoothing float64) float64 {
	if smoothing <= 0 {
		smoothing = db.Smoothing
	}
	s := db.Stats[key]
	p := (s.Pos + smoothing) / (s.Count() + 2*smoothing)
	return math.Log(p / (1 - p))
}

// Count returns the number of observations of the feature.
func (db *DB) Count(key string) float64 { return db.Stats[key].Count() }

// Len returns the number of distinct features observed.
func (db *DB) Len() int { return len(db.Stats) }

// --- key scheme ---
//
// Every feature kind gets its own namespace prefix. The separators used
// inside keys ('|', '\x1f' and '→') cannot appear in normalised term
// text, so keys are unambiguous.

const (
	prefixTerm       = "term|"
	prefixTermPos    = "tpos|"
	prefixRewrite    = "rw|"
	prefixRewritePos = "rwpos|"
	prefixPos        = "pos|"
	sep              = "\x1f"
)

// TermKey is the position-free term feature ("term present in one
// creative but not the other").
func TermKey(text string) string { return prefixTerm + text }

// ParseTermKey inverts TermKey: it returns the term text of a
// position-free term key, with ok false for keys of any other kind.
func ParseTermKey(key string) (text string, ok bool) {
	if !strings.HasPrefix(key, prefixTerm) {
		return "", false
	}
	return key[len(prefixTerm):], true
}

// TermPosKey is the positioned term feature text:pos:line.
func TermPosKey(text string, pos, line int) string {
	return fmt.Sprintf("%s%s%s%d:%d", prefixTermPos, text, sep, pos, line)
}

// RewriteKey is the position-free rewrite feature from→to. Rewrite
// statistics are deliberately position-free "to handle sparsity issues"
// (Section V-D.1).
func RewriteKey(from, to string) string {
	return prefixRewrite + from + sep + to
}

// RewritePosKey is the position-pair feature of a rewrite: source
// (pos, line) → target (pos, line).
func RewritePosKey(fromPos, fromLine, toPos, toLine int) string {
	return fmt.Sprintf("%s%d:%d%s%d:%d", prefixRewritePos, fromPos, fromLine, sep, toPos, toLine)
}

// PosKey is the micro-position feature (pos, line) of a term.
func PosKey(pos, line int) string {
	return fmt.Sprintf("%s%d:%d", prefixPos, pos, line)
}

// ParsePosKey parses a key produced by PosKey back into its (pos, line)
// coordinates; ok is false for keys of any other kind.
func ParsePosKey(key string) (pos, line int, ok bool) {
	if !strings.HasPrefix(key, prefixPos) {
		return 0, 0, false
	}
	var p, l int
	if _, err := fmt.Sscanf(key[len(prefixPos):], "%d:%d", &p, &l); err != nil {
		return 0, 0, false
	}
	return p, l, true
}

// KeyKind reports the namespace of a key ("term", "tpos", "rw", "rwpos",
// "pos" or "" for foreign keys).
func KeyKind(key string) string {
	i := strings.IndexByte(key, '|')
	if i < 0 {
		return ""
	}
	switch key[:i+1] {
	case prefixTerm:
		return "term"
	case prefixTermPos:
		return "tpos"
	case prefixRewrite:
		return "rw"
	case prefixRewritePos:
		return "rwpos"
	case prefixPos:
		return "pos"
	}
	return ""
}
