package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpusgen"
	"repro/internal/postings"
)

// The build-bytes golden test pins index construction to bytes: for a
// seeded corpus, every coding at several MSS values must produce the
// very subtree.idx (and key and posting counts) recorded in
// testdata/build_golden.json. The file was generated before extraction
// became the bottom-up key DP, from the top-down pattern extractor, so
// it holds the new kernel to the old one's output byte for byte; its
// hashes were regenerated once since, for the B+Tree's switch to extent
// values, with every key and posting count unchanged. Regenerate it
// only for a deliberate on-disk change:
//
//	go test ./internal/core -run TestBuildBytesGolden -update-build-golden
var updateBuildGolden = flag.Bool("update-build-golden", false, "rewrite testdata/build_golden.json from this build")

const (
	buildGoldenPath  = "testdata/build_golden.json"
	buildGoldenSeed  = 20120827
	buildGoldenTrees = 2000
)

// buildGolden is one build's fingerprint.
type buildGolden struct {
	Name        string `json:"name"`
	IndexSHA256 string `json:"index_sha256"`
	Keys        int    `json:"keys"`
	Postings    int    `json:"postings"`
}

type buildGoldenFile struct {
	Seed   uint64        `json:"seed"`
	Trees  int           `json:"trees"`
	Builds []buildGolden `json:"builds"`
}

func TestBuildBytesGolden(t *testing.T) {
	trees := corpusgen.New(buildGoldenSeed).Trees(buildGoldenTrees)
	var opts []Options
	for _, coding := range []postings.Coding{postings.FilterBased, postings.RootSplit, postings.SubtreeInterval} {
		for _, mss := range []int{1, 3, 5} {
			opts = append(opts, Options{MSS: mss, Coding: coding})
		}
	}
	opts = append(opts, Options{MSS: 3, Coding: postings.RootSplit, DisableRootDedup: true})

	got := buildGoldenFile{Seed: buildGoldenSeed, Trees: buildGoldenTrees}
	for _, opt := range opts {
		name := fmt.Sprintf("%s/mss%d", opt.Coding, opt.MSS)
		if opt.DisableRootDedup {
			name += "/nodedup"
		}
		dir := filepath.Join(t.TempDir(), "ix")
		meta, err := Build(dir, trees, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, indexFileName))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		got.Builds = append(got.Builds, buildGolden{
			Name:        name,
			IndexSHA256: hex.EncodeToString(sum[:]),
			Keys:        meta.Keys,
			Postings:    meta.Postings,
		})
	}

	if *updateBuildGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(buildGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(buildGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", buildGoldenPath)
		return
	}

	raw, err := os.ReadFile(buildGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want buildGoldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if want.Seed != got.Seed || want.Trees != got.Trees || len(want.Builds) != len(got.Builds) {
		t.Fatalf("golden file is for seed %d / %d trees / %d builds", want.Seed, want.Trees, len(want.Builds))
	}
	for i, w := range want.Builds {
		if g := got.Builds[i]; g != w {
			t.Errorf("build %s: got %+v, golden %+v", w.Name, g, w)
		}
	}
}
