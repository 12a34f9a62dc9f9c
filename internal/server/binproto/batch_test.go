package binproto

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/clickmodel"
	"repro/internal/engine"
)

// TestBatchBuilder drives the arena through its exported builder the
// way the JSON scanner does — evidence in any order, lists present but
// empty, lists never opened — and checks what Requests hands over,
// nil-versus-empty included: the JSON contract is reflect.DeepEqual
// with encoding/json, which tells the two apart.
func TestBatchBuilder(t *testing.T) {
	var b Batch
	for round := 0; round < 2; round++ { // the second round reuses the arenas
		b.Reset()
		b.Add()
		b.Lines()
		b.Line([]byte("Acme"))
		b.Line(nil)
		b.SetMaxN(3)
		b.SetID([]byte("m1"))
		b.Add() // nothing but the request itself
		b.Add()
		b.Session()
		b.Clicks()
		b.Click(true)
		b.Click(false)
		b.Query([]byte("q"))
		b.Docs()
		b.Doc([]byte("a"))
		b.SetModel([]byte("pbm"))
		b.Add()
		b.Lines() // present, empty
		b.Session()
		b.Docs() // present, empty; clicks never opened
		if b.Len() != 4 {
			t.Fatalf("Len = %d, want 4", b.Len())
		}
		want := []engine.Request{
			{ID: "m1", Lines: []string{"Acme", ""}, MaxN: 3},
			{},
			{Model: "pbm", Session: &clickmodel.Session{Query: "q", Docs: []string{"a"}, Clicks: []bool{true, false}}},
			{Lines: []string{}, Session: &clickmodel.Session{Docs: []string{}}},
		}
		if got := b.Requests(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: Requests() = %+v, want %+v", round, got, want)
		}
	}
	if b.Size() <= 0 {
		t.Errorf("Size() = %d for a used batch", b.Size())
	}

	// Warm, the whole build — Requests included — allocates nothing.
	if raceEnabled {
		return
	}
	line := []byte("Find cheap flights")
	if allocs := testing.AllocsPerRun(100, func() {
		b.Reset()
		for i := 0; i < 8; i++ {
			b.Add()
			b.Lines()
			b.Line(line)
			b.Session()
			b.Docs()
			b.Doc(line)
		}
		b.Requests()
	}); allocs != 0 {
		t.Errorf("a warm build allocates %v/op, want 0", allocs)
	}
}

// FuzzDecodeRequests: an MBSP score payload decodes into the shared
// arena with an error, or into a batch whose re-encoding is the
// payload's canonical form — as long as the payload, decoding to the
// same requests, and re-encoding to itself (only the padding bits of a
// click bitset are free to differ). Never a panic, never a read past
// the payload.
func FuzzDecodeRequests(f *testing.F) {
	seed, err := AppendRequests(nil, testRequests())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(appendU32(nil, 0))
	f.Add(appendU32(nil, 5))                           // claims 5 requests, provides none
	f.Add(appendU32(nil, MaxBatch+1))                  // over the limit
	f.Add(append(appendU32(nil, 1), 0, 0, 0, 0, 0, 9)) // unknown evidence kind
	f.Add(append(bytes.Clone(seed), 0))                // trailing byte
	var b, again Batch
	f.Fuzz(func(t *testing.T, payload []byte) {
		reqs, err := b.decodeRequests(payload)
		if err != nil {
			return
		}
		enc, err := AppendRequests(nil, reqs)
		if err != nil {
			t.Fatalf("a decoded batch does not re-encode: %v", err)
		}
		if len(enc) != len(payload) {
			t.Fatalf("re-encoding is %d bytes, the payload %d", len(enc), len(payload))
		}
		reqs2, err := again.decodeRequests(enc)
		if err != nil || !reflect.DeepEqual(reqs2, reqs) {
			t.Fatalf("the re-encoding decodes to %+v (%v), want %+v", reqs2, err, reqs)
		}
		if enc2, err := AppendRequests(nil, reqs2); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("the re-encoding is not a fixed point (%v)", err)
		}
	})
}
