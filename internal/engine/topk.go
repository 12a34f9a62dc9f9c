package engine

import "repro/internal/core"

// TopK is the bounded best-k selector of the candidate-set serving
// path: /v1/optimize ranks N candidate scores but returns only the top
// handful, so a full sort.Slice over every scored variant is both
// O(N log N) and an allocation (the closure). TopK keeps a min-heap of
// the k best offers seen — the root is the worst survivor, so a losing
// candidate costs one compare and a winning one O(log k) — and orders
// the survivors in place on demand. The zero value is ready; Reset
// reuses the backing arrays, so a warm selector allocates nothing.
//
// Ordering is by descending score with ties broken toward the lower
// index, making selection deterministic for equal scores.
type TopK struct {
	k   int
	idx []int32
	val []float64
}

// Reset empties the selector and sets its bound. k <= 0 selects
// nothing (every Offer is dropped).
func (t *TopK) Reset(k int) {
	if k < 0 {
		k = 0
	}
	t.k = k
	t.idx = t.idx[:0]
	t.val = t.val[:0]
}

// Len reports how many survivors the selector currently holds
// (min(k, offers so far)).
func (t *TopK) Len() int { return len(t.idx) }

// Offer submits one (index, score) pair.
//
//mb:noalloc
func (t *TopK) Offer(idx int, score float64) {
	if len(t.idx) < t.k {
		t.idx = append(t.idx, int32(idx))
		t.val = append(t.val, score)
		t.up(len(t.idx) - 1)
		return
	}
	if t.k == 0 {
		return
	}
	// Beat the worst survivor or be dropped.
	if !(score > t.val[0] || (score == t.val[0] && int32(idx) < t.idx[0])) {
		return
	}
	t.val[0], t.idx[0] = score, int32(idx)
	t.down(0, len(t.idx))
}

// Sorted orders the survivors best-first in place and returns views of
// the selector's backing arrays (valid until the next Reset). The heap
// invariant is consumed: Reset before offering again.
//
//mb:noalloc
func (t *TopK) Sorted() (idx []int32, val []float64) {
	for end := len(t.idx) - 1; end > 0; end-- {
		t.swap(0, end)
		t.down(0, end)
	}
	return t.idx, t.val
}

// Rank is /v1/optimize's ranking rule, the one both its front ends
// (HTTP and MBSP) serve. scores is a candidate-set pass: scores[0] the
// base, scores[1:] the candidates. idx lists up to k candidate indices
// (0-based into scores[1:]; k <= 0 keeps every candidate) by
// descending CTR, ties to the earlier candidate, as a view valid until
// the next Reset. best is idx[0] when that candidate's CTR beats the
// base's, and -1 (keep the base) otherwise.
//
//mb:noalloc
func (t *TopK) Rank(scores []core.CandidateScore, k int) (idx []int32, best int) {
	n := len(scores) - 1
	if k <= 0 || k > n {
		k = n
	}
	t.Reset(k)
	for i := 0; i < n; i++ {
		t.Offer(i, scores[i+1].CTR)
	}
	idx, _ = t.Sorted()
	best = -1
	if len(idx) > 0 && scores[int(idx[0])+1].CTR > scores[0].CTR {
		best = int(idx[0])
	}
	return idx, best
}

// worse reports whether element i loses to element j under the
// selector's ordering — the min-heap comparison, with the worst
// element at the root.
func (t *TopK) worse(i, j int) bool {
	if t.val[i] != t.val[j] {
		return t.val[i] < t.val[j]
	}
	return t.idx[i] > t.idx[j]
}

func (t *TopK) swap(i, j int) {
	t.idx[i], t.idx[j] = t.idx[j], t.idx[i]
	t.val[i], t.val[j] = t.val[j], t.val[i]
}

func (t *TopK) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.worse(i, p) {
			return
		}
		t.swap(i, p)
		i = p
	}
}

func (t *TopK) down(i, n int) {
	for {
		m := i
		if l := 2*i + 1; l < n && t.worse(l, m) {
			m = l
		}
		if r := 2*i + 2; r < n && t.worse(r, m) {
			m = r
		}
		if m == i {
			return
		}
		t.swap(i, m)
		i = m
	}
}
