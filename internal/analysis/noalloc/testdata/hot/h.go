// Package hot exercises the //mb:noalloc checks: every allocating
// construct is rejected inside annotated functions, self-append and
// suppressed lines pass, and unannotated functions are ignored.
package hot

import "errors"

//mb:noalloc
func selfAppend(dst, src []byte) []byte {
	dst = append(dst, src...)     // ok: reuses dst's backing array
	dst = append(dst[:0], src...) // ok: reset-and-refill idiom
	return dst
}

//mb:noalloc
func freshAppend(dst, src []byte) []byte {
	out := append(src, dst...) // want `append grows into a fresh backing array`
	return out
}

//mb:noalloc
func makes(n int) int {
	b := make([]byte, n)  // want `make allocates`
	m := map[string]int{} // want `map literal allocates`
	s := []int{1, 2}      // want `slice literal allocates`
	p := new(int)         // want `new allocates`
	q := &pair{}          // want `&composite literal escapes`
	return len(b) + len(m) + len(s) + *p + q.a
}

type pair struct{ a, b int }

//mb:noalloc
func concat(a, b string) string {
	return a + b // want `string concatenation allocates`
}

//mb:noalloc
func convert(b []byte) string {
	return string(b) // want `to string conversion copies`
}

//mb:noalloc
func mapKey(m map[string]int, b []byte) int {
	n, ok := m[string(b)] // ok: a map read looks the bytes up in place
	if !ok {
		m[string(b)] = n  // want `to string conversion copies`
		m[string(b)]++    // want `to string conversion copies`
		m[string(b)] += 2 // want `to string conversion copies`
	}
	return n + m[string(b)] // ok
}

//mb:noalloc
func convertBack(s string) []byte {
	return []byte(s) // want `string to \[\]byte conversion copies`
}

//mb:noalloc
func boxes(v int) {
	var sink any
	sink = v // want `boxes it on the heap`
	_ = sink
}

//mb:noalloc
func boxedArg(v pair) {
	accept(v) // want `boxes it on the heap`
}

func accept(any) {}

//mb:noalloc
func pointerShapedArg(v *pair) {
	accept(v) // ok: a pointer fits the interface word
}

//mb:noalloc
func variadic(v int) int {
	return sum(v) // want `variadic call allocates its argument slice` `boxes it on the heap`
}

func sum(vs ...any) int { return len(vs) }

//mb:noalloc
func denylisted() error {
	return errors.New("boom") // want `call to errors\.New allocates`
}

//mb:noalloc
func closures() {
	f := func() {} // want `closure allocates`
	f()
}

//mb:noalloc
func spawns() {
	go helper() // want `go statement allocates`
}

func helper() {}

//mb:noalloc
func suppressed(n int) []byte {
	b := make([]byte, n) //mb:allocok capacity miss on first use, then reused
	return b
}

// unannotated functions allocate freely.
func cold() []byte {
	return make([]byte, 1)
}
