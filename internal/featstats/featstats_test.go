package featstats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestObserveAndP(t *testing.T) {
	db := New(1)
	key := TermKey("cheap")
	for i := 0; i < 8; i++ {
		db.Observe(key, +0.5)
	}
	for i := 0; i < 2; i++ {
		db.Observe(key, -0.5)
	}
	// (8+1)/(10+2) = 0.75.
	if got := db.P(key); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("P = %v, want 0.75", got)
	}
	if got := db.OddsRatio(key); math.Abs(got-3) > 1e-12 {
		t.Errorf("OddsRatio = %v, want 3", got)
	}
	if got := db.LogOdds(key); math.Abs(got-math.Log(3)) > 1e-12 {
		t.Errorf("LogOdds = %v, want log 3", got)
	}
	if got := db.Count(key); got != 10 {
		t.Errorf("Count = %v, want 10", got)
	}
}

func TestObserveIgnoresZeroDiff(t *testing.T) {
	db := New(1)
	db.Observe(TermKey("x"), 0)
	if db.Len() != 0 {
		t.Error("zero sw-diff should be discarded")
	}
}

func TestUnseenFeatureIsNeutral(t *testing.T) {
	db := New(1)
	if got := db.P(TermKey("never")); got != 0.5 {
		t.Errorf("unseen P = %v, want 0.5", got)
	}
	if got := db.LogOdds(TermKey("never")); got != 0 {
		t.Errorf("unseen LogOdds = %v, want 0", got)
	}
}

func TestSmoothingDefault(t *testing.T) {
	db := New(-3)
	if db.Smoothing != 1 {
		t.Errorf("Smoothing = %v, want 1", db.Smoothing)
	}
}

func TestPBounds(t *testing.T) {
	f := func(pos, neg uint16) bool {
		db := New(1)
		k := TermKey("k")
		for i := 0; i < int(pos%500); i++ {
			db.Observe(k, 1)
		}
		for i := 0; i < int(neg%500); i++ {
			db.Observe(k, -1)
		}
		p := db.P(k)
		return p > 0 && p < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogOddsAntisymmetry(t *testing.T) {
	// Swapping pos and neg counts negates the log odds.
	db := New(1)
	a, b := TermKey("a"), TermKey("b")
	for i := 0; i < 7; i++ {
		db.Observe(a, 1)
		db.Observe(b, -1)
	}
	for i := 0; i < 3; i++ {
		db.Observe(a, -1)
		db.Observe(b, 1)
	}
	if got := db.LogOdds(a) + db.LogOdds(b); math.Abs(got) > 1e-12 {
		t.Errorf("log odds not antisymmetric: %v", got)
	}
}

func TestKeyNamespaces(t *testing.T) {
	keys := map[string]string{
		TermKey("find cheap"):          prefixTerm,
		TermPosKey("find cheap", 1, 2): prefixTermPos,
		RewriteKey("find", "get"):      prefixRewrite,
		RewritePosKey(1, 2, 5, 2):      prefixRewritePos,
		PosKey(3, 1):                   prefixPos,
	}
	for k, want := range keys {
		if !strings.HasPrefix(k, want) {
			t.Errorf("key %q is outside its namespace %q", k, want)
		}
	}
}

func TestKeysAreDistinct(t *testing.T) {
	// The same surface text in different namespaces must not collide,
	// and positions must separate keys.
	keys := []string{
		TermKey("a"),
		TermPosKey("a", 1, 1),
		TermPosKey("a", 1, 2),
		TermPosKey("a", 2, 1),
		RewriteKey("a", "b"),
		RewriteKey("b", "a"),
		RewritePosKey(1, 1, 2, 1),
		RewritePosKey(2, 1, 1, 1),
		PosKey(1, 1),
		PosKey(11, 1),
		PosKey(1, 11),
	}
	seen := make(map[string]bool)
	for _, k := range keys {
		if seen[k] {
			t.Errorf("key collision: %q", k)
		}
		seen[k] = true
	}
}

func TestRewriteKeyDirectionality(t *testing.T) {
	db := New(1)
	db.Observe(RewriteKey("cheap", "pricey"), -1)
	db.Observe(RewriteKey("pricey", "cheap"), 1)
	if db.P(RewriteKey("cheap", "pricey")) >= 0.5 {
		t.Error("rewrite direction lost")
	}
	if db.P(RewriteKey("pricey", "cheap")) <= 0.5 {
		t.Error("reverse rewrite direction lost")
	}
}

func BenchmarkObserve(b *testing.B) {
	db := New(1)
	k := RewriteKey("find cheap", "get discounts")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Observe(k, 1)
	}
}

func BenchmarkTermPosKey(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TermPosKey("find cheap", 3, 2)
	}
}
