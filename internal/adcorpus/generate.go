package adcorpus

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/snippet"
)

// Slot records the placement of one appeal-bearing phrase inside a
// creative: the ground-truth annotation the user simulator consumes.
// Line and Pos are the 1-based line number and token position of the
// phrase's first token, matching textproc coordinates.
type Slot struct {
	Text   string  `json:"text"`
	Line   int     `json:"line"`
	Pos    int     `json:"pos"`
	Appeal float64 `json:"appeal"`
}

// Creative is a generated ad creative together with its ground-truth
// phrase slots.
type Creative struct {
	ID    string   `json:"id"`
	Lines []string `json:"lines"`
	Slots []Slot   `json:"slots"`
}

// Snippet converts to the model-facing creative type.
func (c Creative) Snippet() snippet.Creative {
	return snippet.Creative{ID: c.ID, Lines: c.Lines}
}

// Group is an adgroup: a keyword with 2–4 alternative creatives.
type Group struct {
	ID        string     `json:"id"`
	Vertical  string     `json:"vertical"`
	Keyword   string     `json:"keyword"`
	Creatives []Creative `json:"creatives"`
}

// Corpus is the synthetic ADCORPUS.
type Corpus struct {
	Groups []Group `json:"groups"`
}

// Config controls corpus generation.
type Config struct {
	// Seed drives all randomness; generation is deterministic given it.
	Seed int64
	// Groups is the number of adgroups (default 500).
	Groups int
	// MaxCreatives caps creatives per adgroup in [2, MaxCreatives]
	// (default 4).
	MaxCreatives int
}

func (c *Config) defaults() {
	if c.Groups <= 0 {
		c.Groups = 500
	}
	if c.MaxCreatives < 2 {
		c.MaxCreatives = 4
	}
}

// variantKind enumerates how a creative variant differs from its base.
type variantKind int

const (
	variantHookRewrite     variantKind = iota // swap the hook phrase
	variantHookMove                           // move the hook to another placement
	variantTrustRewrite                       // swap the trust phrase
	variantTrustSwap                          // reorder the two trust phrases
	variantTailToggle                         // add/remove/replace the tail
	variantConnectorChange                    // neutral line-2 filler change
	variantFillerChange                       // neutral line-3 filler change
	numVariantKinds
)

// hookPlacement positions the hook phrase within the creative. Moving
// the hook between placements changes its micro-position (and hence the
// attention it receives) without changing the words — the position
// effect the paper's positional models exploit.
type hookPlacement int

const (
	hookLine2Front hookPlacement = iota // "20% off flights to rome"
	hookLine2Back                       // "flights to rome [now] 20% off"
	hookLine1                           // "jetwise deals - 20% off" (headline)
	numHookPlacements
)

// build assembles one creative from its parts, tracking slots.
type build struct {
	brand     string
	suffix    Phrase
	hook      Phrase
	hookPlace hookPlacement
	object    string // the rendered object paraphrase for this creative
	connector Phrase // neutral, only rendered in the hook-last layout
	tail      Phrase // Text == "" means no tail
	trust     Phrase
	filler    Phrase    // neutral line-3 lead-in
	trust2    Phrase    // optional second trust phrase ("" = absent)
	trustRev  bool      // render trust2 before trust
	decor     [3]string // idiosyncratic trailing phrase per line ("" = none)
}

func tokens(s string) int {
	if s == "" {
		return 0
	}
	return len(strings.Fields(s))
}

// pickVariantKind draws a variant kind with weights favouring the
// substantive edits (hook rewrites, placement moves) over neutral filler
// churn, roughly matching how advertisers iterate creatives.
func pickVariantKind(rng *rand.Rand) variantKind {
	r := rng.Float64()
	switch {
	case r < 0.28:
		return variantHookRewrite
	case r < 0.50:
		return variantHookMove
	case r < 0.66:
		return variantTrustRewrite
	case r < 0.76:
		return variantTrustSwap
	case r < 0.82:
		return variantTailToggle
	case r < 0.92:
		return variantConnectorChange
	default:
		return variantFillerChange
	}
}

// render produces the creative text and slots.
func (b build) render(id string) Creative {
	var c Creative
	c.ID = id

	// Line 1: brand [+ suffix] [+ hook when placed in the headline].
	line1 := b.brand
	if b.suffix.Text != "" {
		line1 += " " + b.suffix.Text
		c.Slots = append(c.Slots, Slot{
			Text: b.suffix.Text, Line: 1, Pos: tokens(b.brand) + 1, Appeal: b.suffix.Appeal,
		})
	}
	if b.hookPlace == hookLine1 {
		pos := tokens(line1) + 1
		line1 += " " + b.hook.Text
		c.Slots = append(c.Slots, Slot{Text: b.hook.Text, Line: 1, Pos: pos, Appeal: b.hook.Appeal})
	}

	// Line 2: "hook object [tail]", "object [connector] hook [tail]", or
	// just "object [tail]" when the hook lives in the headline. The
	// connector is neutral filler: it shifts positions and changes
	// n-grams without moving CTR.
	var line2 string
	switch b.hookPlace {
	case hookLine2Front:
		line2 = b.hook.Text + " " + b.object
		c.Slots = append(c.Slots, Slot{Text: b.hook.Text, Line: 2, Pos: 1, Appeal: b.hook.Appeal})
	case hookLine2Back:
		line2 = b.object
		if b.connector.Text != "" {
			line2 += " " + b.connector.Text
		}
		pos := tokens(line2) + 1
		line2 += " " + b.hook.Text
		c.Slots = append(c.Slots, Slot{Text: b.hook.Text, Line: 2, Pos: pos, Appeal: b.hook.Appeal})
	default: // hookLine1
		line2 = b.object
	}
	if b.tail.Text != "" {
		pos := tokens(line2) + 1
		line2 += " " + b.tail.Text
		c.Slots = append(c.Slots, Slot{Text: b.tail.Text, Line: 2, Pos: pos, Appeal: b.tail.Appeal})
	}

	// Line 3: neutral filler, then the trust phrases in either order.
	var line3 string
	if b.filler.Text != "" {
		line3 = b.filler.Text + " "
	}
	first, second := b.trust, b.trust2
	if b.trustRev && b.trust2.Text != "" {
		first, second = b.trust2, b.trust
	}
	c.Slots = append(c.Slots, Slot{Text: first.Text, Line: 3, Pos: tokens(line3) + 1, Appeal: first.Appeal})
	line3 += first.Text
	if second.Text != "" {
		pos := tokens(line3) + 1
		line3 += " " + second.Text
		c.Slots = append(c.Slots, Slot{Text: second.Text, Line: 3, Pos: pos, Appeal: second.Appeal})
	}

	lines := []string{line1, line2, line3}
	for i, d := range b.decor {
		if d != "" {
			lines[i] += " " + d
		}
	}
	c.Lines = lines
	return c
}

// Generate builds a deterministic synthetic corpus from the lexicon.
func Generate(cfg Config, lex *Lexicon) *Corpus {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	corpus := &Corpus{Groups: make([]Group, 0, cfg.Groups)}

	pick := func(ps []Phrase) Phrase { return ps[rng.Intn(len(ps))] }

	// Advertisers A/B test within a strategy: an adgroup's alternative
	// hooks (and trust phrases) come from a narrow neighbourhood in
	// appeal space — aggressive advertisers compare aggressive offers.
	// This selection effect is what makes marginal term statistics weak
	// (each phrase mostly duels near-equals and wins about half the
	// time) while directed rewrite statistics stay sharp; it is the
	// paper's reason rewrites outperform bags of terms.
	hooksByAppeal := sortedByAppeal(lex.Hooks)
	trustByAppeal := sortedByAppeal(lex.Trust)
	tailsByAppeal := sortedByAppeal(lex.Tails)
	windowPick := func(sorted []Phrase, center, radius int) Phrase {
		lo := center - radius
		if lo < 0 {
			lo = 0
		}
		hi := center + radius + 1
		if hi > len(sorted) {
			hi = len(sorted)
		}
		return sorted[lo+rng.Intn(hi-lo)]
	}

	// rollDecor draws each line's idiosyncratic trailing phrase. Every
	// creative gets an independent roll, so almost every pair differs in
	// incidental words on top of its substantive edit.
	rollDecor := func() [3]string {
		var d [3]string
		for i := range d {
			if rng.Float64() < 0.35 {
				adj := lex.DecorAdjectives[rng.Intn(len(lex.DecorAdjectives))]
				noun := lex.DecorNouns[rng.Intn(len(lex.DecorNouns))]
				d[i] = adj + " " + noun
			}
		}
		return d
	}

	for g := 0; g < cfg.Groups; g++ {
		v := lex.Verticals[rng.Intn(len(lex.Verticals))]
		hookCenter := rng.Intn(len(hooksByAppeal))
		trustCenter := rng.Intn(len(trustByAppeal))
		tailCenter := rng.Intn(len(tailsByAppeal))
		keyword := v.Objects[rng.Intn(len(v.Objects))]
		base := build{
			brand:     v.Brands[rng.Intn(len(v.Brands))],
			suffix:    pick(lex.BrandSuffixes),
			hook:      windowPick(hooksByAppeal, hookCenter, hookWindow),
			hookPlace: hookPlacement(rng.Intn(int(numHookPlacements))),
			object:    paraphraseObject(rng, keyword),
			connector: pick(lex.Connectors),
			trust:     windowPick(trustByAppeal, trustCenter, trustWindow),
			filler:    pick(lex.Fillers),
			decor:     rollDecor(),
		}
		if rng.Float64() < 0.5 {
			base.tail = windowPick(tailsByAppeal, tailCenter, tailWindow)
		}
		if rng.Float64() < 0.4 {
			base.trust2 = pick(lex.Trust)
		}

		group := Group{
			ID:       fmt.Sprintf("g%05d", g),
			Vertical: v.Name,
			Keyword:  keyword,
		}
		n := 2 + rng.Intn(cfg.MaxCreatives-1) // 2..MaxCreatives
		group.Creatives = append(group.Creatives, base.render(fmt.Sprintf("g%05d-c0", g)))

		mutate := func(variant *build) {
			switch pickVariantKind(rng) {
			case variantHookRewrite:
				for variant.hook == base.hook {
					variant.hook = windowPick(hooksByAppeal, hookCenter, hookWindow)
				}
			case variantHookMove:
				move := hookPlacement(rng.Intn(int(numHookPlacements)))
				for move == variant.hookPlace {
					move = hookPlacement(rng.Intn(int(numHookPlacements)))
				}
				variant.hookPlace = move
			case variantTrustRewrite:
				for variant.trust == base.trust {
					variant.trust = windowPick(trustByAppeal, trustCenter, trustWindow)
				}
			case variantTrustSwap:
				if variant.trust2.Text != "" {
					variant.trustRev = !variant.trustRev
				} else {
					for variant.filler == base.filler {
						variant.filler = pick(lex.Fillers)
					}
				}
			case variantTailToggle:
				if variant.tail.Text == "" {
					variant.tail = windowPick(tailsByAppeal, tailCenter, tailWindow)
				} else if rng.Float64() < 0.5 {
					variant.tail = Phrase{}
				} else {
					for variant.tail == base.tail {
						variant.tail = windowPick(tailsByAppeal, tailCenter, tailWindow)
					}
				}
			case variantConnectorChange:
				for variant.connector == base.connector {
					variant.connector = pick(lex.Connectors)
				}
			case variantFillerChange:
				for variant.filler == base.filler {
					variant.filler = pick(lex.Fillers)
				}
			}
		}

		cur := base
		for i := 1; i < n; i++ {
			variant := cur
			variant.decor = rollDecor()
			if rng.Float64() < 0.5 {
				variant.object = paraphraseObject(rng, keyword)
			}
			mutate(&variant)
			// Nearly half the variants carry a second, compounding change
			// — real advertisers rarely do perfectly isolated A/B edits,
			// and conflicting multi-line edits are where position
			// weighting decides the winner.
			if rng.Float64() < 0.45 {
				mutate(&variant)
			}
			group.Creatives = append(group.Creatives, variant.render(fmt.Sprintf("g%05d-c%d", g, i)))
			// Half the time chain variants (variant-of-variant), half the
			// time branch from the base again, giving richer pair diffs.
			if rng.Float64() < 0.5 {
				cur = variant
			} else {
				cur = base
			}
		}
		corpus.Groups = append(corpus.Groups, group)
	}
	return corpus
}

// hookWindow, trustWindow and tailWindow are the appeal-neighbourhood
// radii for within-adgroup phrase selection.
const (
	hookWindow  = 4
	trustWindow = 3
	tailWindow  = 2
)

// paraphraseObject renders the adgroup keyword as creative text. Real
// creatives rarely repeat the keyword verbatim; the paraphrases are
// appeal-neutral but diversify junction n-grams so that token
// adjacencies cannot act as dense statistical proxies.
func paraphraseObject(rng *rand.Rand, keyword string) string {
	words := strings.Fields(keyword)
	switch rng.Intn(3) {
	case 0:
		return keyword
	case 1:
		// "flights to rome" -> "rome flights"; "running shoes" stays.
		for i, w := range words {
			if (w == "to" || w == "in") && i > 0 && i < len(words)-1 {
				rest := strings.Join(words[i+1:], " ")
				return rest + " " + strings.Join(words[:i], " ")
			}
		}
		return keyword
	default:
		prefixes := []string{"quality", "top", "great", "your"}
		return prefixes[rng.Intn(len(prefixes))] + " " + keyword
	}
}

// sortedByAppeal returns the phrases ordered by ascending appeal.
func sortedByAppeal(ps []Phrase) []Phrase {
	out := append([]Phrase(nil), ps...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Appeal != out[j].Appeal {
			return out[i].Appeal < out[j].Appeal
		}
		return out[i].Text < out[j].Text
	})
	return out
}
