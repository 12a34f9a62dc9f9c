package engine

// Generator of the v2 fixtures <fixture>.mbs2 under
// internal/engine/testdata/parent_0c75e9e. It is not part of any build.
// They were made at commit 7dc123b, the last commit with a v1 reader,
// by copying this file into internal/engine as zz_convert_test.go and
// running
//
//	FIXTURE_DIR=/abs/path go test ./internal/engine -run TestConvertParentV1Fixtures
//
// For every v1 artifact generate_test.go wrote at 0c75e9e (micro,
// bbm_sparse and the ten registry click models) it writes the v2 bytes
// that commit's importer made of it: the artifact the decoded model's
// own Save writes. golden.json is what 0c75e9e's engine answered from
// the v1 artifacts and is left as that commit wrote it.

import (
	"os"
	"path/filepath"
	"testing"
)

func TestConvertParentV1Fixtures(t *testing.T) {
	dir := os.Getenv("FIXTURE_DIR")
	if dir == "" {
		t.Skip("FIXTURE_DIR not set")
	}
	for _, fixture := range v1FixtureNames() {
		v1, err := os.ReadFile(filepath.Join(dir, fixture+".mbsn"))
		if err != nil {
			t.Fatal(err)
		}
		v2, err := importV1(v1)
		if err != nil {
			t.Fatalf("%s: %v", fixture, err)
		}
		if err := os.WriteFile(filepath.Join(dir, fixture+".mbs2"), v2, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
