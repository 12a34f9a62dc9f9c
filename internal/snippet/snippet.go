// Package snippet defines the snippet (ad creative) types shared across the
// library: multi-line creatives, click/impression statistics, and creative
// pairs — the unit of input to the snippet classifier.
//
// Terminology follows the paper: an advertiser groups creatives targeting
// the same keyword into an adgroup; an impression is one display of a
// creative; CTR is clicks over impressions; the serve weight of a creative
// normalises its CTR by the adgroup's average CTR so that serve weights of
// creatives in different adgroups are comparable.
package snippet

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/textproc"
)

// MaxLines is the number of text lines in a creative. Sponsored search
// creatives in the paper are three-line texts (headline + two description
// lines).
const MaxLines = 3

// Creative is one ad creative: a short multi-line text belonging to an
// adgroup. The zero value is an empty creative.
type Creative struct {
	ID      string
	AdGroup string
	Lines   []string
}

// New returns a Creative with the given id and up to MaxLines lines.
// Extra lines are an error rather than silently dropped: position features
// are indexed by line number and truncation would corrupt them.
func New(id string, lines ...string) (Creative, error) {
	if len(lines) == 0 {
		return Creative{}, errors.New("snippet: creative needs at least one line")
	}
	if len(lines) > MaxLines {
		return Creative{}, fmt.Errorf("snippet: %d lines exceeds maximum %d", len(lines), MaxLines)
	}
	return Creative{ID: id, Lines: append([]string(nil), lines...)}, nil
}

// Terms extracts the positioned n-gram terms (1..maxN) of the creative.
func (c Creative) Terms(maxN int) []textproc.Term {
	return textproc.ExtractTerms(c.Lines, maxN)
}

// Text renders the creative as a single string with " / " joining lines,
// for logs and messages.
func (c Creative) Text() string { return strings.Join(c.Lines, " / ") }

// Equal reports whether two creatives have identical normalised text,
// line by line. IDs are ignored: two creatives with the same words are
// the same snippet for modelling purposes.
func (c Creative) Equal(o Creative) bool {
	if len(c.Lines) != len(o.Lines) {
		return false
	}
	for i := range c.Lines {
		if textproc.Normalize(c.Lines[i]) != textproc.Normalize(o.Lines[i]) {
			return false
		}
	}
	return true
}

// Stats holds the observed click/impression counts for a creative.
type Stats struct {
	Impressions int64
	Clicks      int64
}

// CTR returns clicks/impressions, or 0 for an unserved creative.
func (s Stats) CTR() float64 {
	if s.Impressions == 0 {
		return 0
	}
	return float64(s.Clicks) / float64(s.Impressions)
}

// Add accumulates another stats record.
func (s Stats) Add(o Stats) Stats {
	return Stats{Impressions: s.Impressions + o.Impressions, Clicks: s.Clicks + o.Clicks}
}

// ServeWeight returns the creative's CTR normalised by the adgroup's
// average CTR: the probability-like weight with which the creative would
// be served from its adgroup. Comparable across adgroups. Returns 0 when
// the adgroup CTR is 0.
func ServeWeight(creative Stats, adgroupCTR float64) float64 {
	if adgroupCTR == 0 {
		return 0
	}
	return creative.CTR() / adgroupCTR
}

// Pair is a pair of creatives from the same adgroup targeting the same
// keyword, together with their serve weights. Observed CTR differences
// within a pair can only be caused by the difference in creative text —
// the premise of the ADCORPUS dataset.
type Pair struct {
	R, S   Creative
	SWR    float64 // serve weight of R
	SWS    float64 // serve weight of S
	RStats Stats
	SStats Stats
}

// Label returns +1 if R has the higher serve weight, -1 if S does, and 0
// on a tie (ties are dropped from classifier training).
func (p Pair) Label() int {
	switch {
	case p.SWR > p.SWS:
		return +1
	case p.SWR < p.SWS:
		return -1
	default:
		return 0
	}
}

// Swap returns the pair with R and S exchanged (and the label therefore
// negated). Used to balance training data.
func (p Pair) Swap() Pair {
	return Pair{R: p.S, S: p.R, SWR: p.SWS, SWS: p.SWR, RStats: p.SStats, SStats: p.RStats}
}

// AdGroup is a keyword with the set of alternative creatives an advertiser
// provided for it, plus their observed stats.
type AdGroup struct {
	ID        string
	Keyword   string
	Creatives []Creative
	Stats     []Stats // parallel to Creatives
}

// CTR returns the adgroup's pooled click-through rate.
func (g AdGroup) CTR() float64 {
	var tot Stats
	for _, s := range g.Stats {
		tot = tot.Add(s)
	}
	return tot.CTR()
}

// Pairs enumerates all ordered-normalised creative pairs of the adgroup
// whose creatives differ in text, computing serve weights from the group
// CTR. Pairs where either creative has fewer than minImpressions are
// skipped: their serve weights are too noisy to label.
func (g AdGroup) Pairs(minImpressions int64) []Pair {
	groupCTR := g.CTR()
	var pairs []Pair
	for i := 0; i < len(g.Creatives); i++ {
		for j := i + 1; j < len(g.Creatives); j++ {
			if g.Stats[i].Impressions < minImpressions || g.Stats[j].Impressions < minImpressions {
				continue
			}
			if g.Creatives[i].Equal(g.Creatives[j]) {
				continue
			}
			pairs = append(pairs, Pair{
				R:      g.Creatives[i],
				S:      g.Creatives[j],
				SWR:    ServeWeight(g.Stats[i], groupCTR),
				SWS:    ServeWeight(g.Stats[j], groupCTR),
				RStats: g.Stats[i],
				SStats: g.Stats[j],
			})
		}
	}
	return pairs
}
