package textproc

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"strconv"
	"testing"
)

// hashString and hashBytes are hashTerm under the two names the
// vocabulary tests call it by, one per key type.
func hashString(s string) uint64 { return hashTerm(s) }
func hashBytes(b []byte) uint64  { return hashTerm(b) }

// TestHashTokenPinned fixes the token hash on literals either side of
// each word boundary. A table placed under this scheme is only good
// under this scheme (ReadSections re-places any other, O(n) per load),
// so a change here must be meant: it is a new scheme, and DESIGN.md §8
// says what that costs.
func TestHashTokenPinned(t *testing.T) {
	for _, c := range []struct {
		token string
		want  uint64
	}{
		{"a", 0x7c2d752fe5bfbf88},
		{"flights", 0xdd36da088e43badc},
		{"discount", 0xa7e9514c7a4a95af},
		{"discounts", 0x044bdf99ad51bdcc},
		{"reservationcosts", 0xf316281d59c9135c},
		{"reservationcosts1", 0xd6bc3b881283560d},
	} {
		if got := hashToken(c.token); got != c.want {
			t.Errorf("hashToken(%q) = %#016x, pinned %#016x", c.token, got, c.want)
		}
		if got := hashToken([]byte(c.token)); got != c.want {
			t.Errorf("hashToken([]byte(%q)) = %#016x, pinned %#016x", c.token, got, c.want)
		}
	}
}

// placementCorpus generates what TestHashPlacementQuality measures on,
// shaped like the end-to-end benchmark's inputs: a vocabulary of a few
// dozen ad phrases planted among padN / "padN fillerM" terms up to
// terms entries, and the 1..3-gram windows of lines composed from those
// phrases, brand names and filler words — the probes a scorer makes, of
// which about one in ten is a term.
func placementCorpus(terms, lines int) (vocab []string, probes [][]byte) {
	phrases := []string{
		"find cheap", "get discounts", "20% off", "save big", "best deals", "low prices", "compare prices",
		"book now", "huge selection", "top rated", "free shipping", "limited offer", "new arrivals", "learn more",
		"sign up today", "visit us", "act fast", "exclusive offers", "more legroom", "instant quote", "today",
		"no hidden fees", "guaranteed", "terms apply", "while supplies last", "in minutes", "for less", "this week",
		"all year round", "before they sell out", "conditions apply", "at participating stores", "with free quotes",
		"and save more", "ends soon", "no reservation costs", "great rates", "free cancellation", "24 7 support",
		"easy returns", "fees may apply", "results may vary", "trusted by millions", "secure checkout",
		"price match promise", "official site", "online store", "deals", "outlet", "from $49", "save 10%",
	}
	fill := []string{
		"coverly", "jetwise", "trendline", "quotewise", "skyhop", "shoebox", "cartly", "securebank", "wearhouse",
		"lendright", "flights", "hotels", "car", "rentals", "in", "atlanta", "business", "checking", "insurance",
		"mortgage", "refinancing", "backpacks", "sunglasses", "rain", "coats", "mens", "kids", "vacations", "loans",
		"and", "enjoy", "plus", "right", "here", "your", "with", "expert", "reliable", "quality", "rewards", "cards",
	}
	vocab = append(vocab, phrases...)
	for i := 0; len(vocab) < terms; i++ {
		term := "pad" + strconv.Itoa(i)
		if i%3 != 0 {
			term += " filler" + strconv.Itoa(i%977)
		}
		vocab = append(vocab, term)
	}
	rng := rand.New(rand.NewSource(20190408))
	var sc Scratch
	for ; lines > 0; lines-- {
		var line []byte
		for words := 0; words < 3+rng.Intn(5); words++ {
			pick := fill
			if rng.Intn(2) == 0 {
				pick = phrases
			}
			line = append(append(line, pick[rng.Intn(len(pick))]...), ' ')
		}
		spans := sc.Tokenize(string(line))
		for i := range spans {
			for n := 1; n <= 3 && i+n <= len(spans); n++ {
				probes = append(probes, append([]byte(nil), sc.Norm[spans[i].Start:spans[i+n-1].End]...))
			}
		}
	}
	return vocab, probes
}

// placementQuality walks every probe through v's tags the way probe
// does, counting instead of answering: the mean number of eight-bucket
// steps a lookup takes, the share of lookups that open the table for a
// tag that matched a different term, and — of the table itself — the
// longest run of occupied buckets, which bounds any chain.
func placementQuality(v *FrozenVocab, probes [][]byte) (steps, falsePos float64, longest int) {
	var nsteps, nfalse int
	for _, key := range probes {
		h := hashTerm(key)
		want := uint64(hashTag(h)) * swarLo
		i := h & v.mask
		for left := len(v.tab); left > 0; left -= tagStep {
			nsteps++
			w := binary.LittleEndian.Uint64(v.tags[i : i+tagStep])
			empty := zeroBytes(w)
			for match := zeroBytes(w^want) & (empty - 1) & ^empty; match != 0; match &= match - 1 {
				id := v.tab[(i+uint64(bits.TrailingZeros64(match)>>3))&v.mask]
				if text, ok := v.term(id); !ok || string(text) != string(key) {
					nfalse++
				}
			}
			if empty != 0 {
				break
			}
			i = (i + tagStep) & v.mask
		}
	}
	run := 0
	for i := 0; i < 2*len(v.tab) && run < len(v.tab); i++ { // twice round: a run may cross the end
		if v.tab[i&int(v.mask)] >= 0 {
			run++
			longest = max(longest, run)
		} else {
			run = 0
		}
	}
	return float64(nsteps) / float64(len(probes)), float64(nfalse) / float64(len(probes)), longest
}

// TestHashPlacementQuality holds the placement this build's hash gives
// a benchmark-shaped vocabulary to the placement the per-byte hash it
// replaced gave the same vocabulary, on the three numbers a lookup's
// cost depends on. Probes are the distinct 1..3-gram windows of the
// generated lines (18,021, about one in eight a term) and a near miss
// of every other term (100,000): the windows alone are too few to
// measure a hash on — between multipliers and shifts that are
// statistically alike they move the false-positive rate from 0.2 % to
// 1.1 % and the longest run from 22 to 32 buckets.
//
//	                       steps/lookup  false positives/lookup  longest run
//	parent (8bb530c)       1.00818       0.006151                23
//	this build             1.00622       0.005558                20
func TestHashPlacementQuality(t *testing.T) {
	vocab, windows := placementCorpus(200_000, 4000)
	seen := map[string]bool{}
	var probes [][]byte
	for _, w := range windows {
		if !seen[string(w)] {
			seen[string(w)] = true
			probes = append(probes, w)
		}
	}
	for i := 0; i < len(vocab); i += 2 {
		probes = append(probes, []byte(vocab[i]+"x"))
	}
	steps, falsePos, longest := placementQuality(freezeTerms(vocab...), probes)
	t.Logf("%d probes: %.5f steps and %.6f false positives a lookup, longest run %d", len(probes), steps, falsePos, longest)
	const parentSteps, parentFalsePos, parentLongest = 1.00818, 0.006151, 23
	if steps > parentSteps {
		t.Errorf("a lookup takes %.5f tag steps, the parent's hash took %.5f", steps, parentSteps)
	}
	if falsePos > parentFalsePos {
		t.Errorf("a lookup opens the table for %.6f wrong terms, under the parent's hash %.6f", falsePos, parentFalsePos)
	}
	if longest > parentLongest {
		t.Errorf("the longest run of occupied buckets is %d, under the parent's hash %d", longest, parentLongest)
	}
}
