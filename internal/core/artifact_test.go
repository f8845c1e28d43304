package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"psigene/internal/attackgen"
	"psigene/internal/httpx"
	"psigene/internal/traffic"
)

// saveTestArtifact writes the shared small model as an artifact under a
// fresh temp dir and returns the artifact path and completed manifest.
func saveTestArtifact(t *testing.T, man Manifest) (string, Manifest) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "v000001")
	got, err := smallModel(t).SaveArtifact(dir, man)
	if err != nil {
		t.Fatalf("SaveArtifact: %v", err)
	}
	return dir, got
}

func TestArtifactRoundTrip(t *testing.T) {
	m := smallModel(t)
	attacks := attackgen.NewGenerator(attackgen.CrawlProfile(), 1).Requests(10)
	dir, man := saveTestArtifact(t, Manifest{
		Version:           "v000001",
		Parent:            "v000000",
		CorpusFingerprint: CorpusFingerprint(attacks),
	})
	if man.SchemaVersion != ManifestSchemaVersion || man.ModelSHA256 == "" || man.FeatureRevision == "" {
		t.Fatalf("manifest not completed: %+v", man)
	}
	if man.Signatures != len(m.Signatures) || man.AttackSamples != m.Stats.AttackSamples {
		t.Fatalf("manifest counts %+v", man)
	}

	loaded, gotMan, err := LoadArtifact(dir)
	if err != nil {
		t.Fatalf("LoadArtifact: %v", err)
	}
	if gotMan != man {
		t.Fatalf("manifest round-trip:\nsaved  %+v\nloaded %+v", man, gotMan)
	}
	// Identical verdicts on a mixed workload, like the legacy round-trip.
	reqs := append(
		attackgen.NewGenerator(attackgen.SQLMapProfile(), 81).Requests(100),
		traffic.NewGenerator(82).Requests(100)...)
	for _, r := range reqs {
		if m.Inspect(r).Alert != loaded.Inspect(r).Alert {
			t.Fatalf("verdicts differ on %q", r.RawQuery)
		}
	}
}

func TestArtifactImmutableAndAtomic(t *testing.T) {
	dir, _ := saveTestArtifact(t, Manifest{Version: "v000001"})
	// Immutable: a second save to the same path must refuse, leaving the
	// original loadable.
	if _, err := smallModel(t).SaveArtifact(dir, Manifest{Version: "v000009"}); err == nil {
		t.Fatal("overwriting an artifact must fail")
	}
	if _, man, err := LoadArtifact(dir); err != nil || man.Version != "v000001" {
		t.Fatalf("original artifact damaged by refused overwrite: %v %+v", err, man)
	}
	// Atomic: no stray staging directories survive, success or failure.
	entries, err := os.ReadDir(filepath.Dir(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".artifact-") {
			t.Fatalf("staging dir %s left behind", e.Name())
		}
	}
	// A version is mandatory — nothing is written without one.
	empty := filepath.Join(t.TempDir(), "unversioned")
	if _, err := smallModel(t).SaveArtifact(empty, Manifest{}); err == nil {
		t.Fatal("versionless manifest must be rejected")
	}
	if _, err := os.Stat(empty); !os.IsNotExist(err) {
		t.Fatalf("rejected save left %s behind (err %v)", empty, err)
	}
	// A trailing slash (shell tab-completion) names the same directory.
	slashed := filepath.Join(t.TempDir(), "v000002") + "/"
	if _, err := smallModel(t).SaveArtifact(slashed, Manifest{Version: "v000002"}); err != nil {
		t.Fatalf("SaveArtifact(%q): %v", slashed, err)
	}
	if _, man, err := LoadArtifact(slashed); err != nil || man.Version != "v000002" {
		t.Fatalf("LoadArtifact(%q): %v %+v", slashed, err, man)
	}
}

// TestLoadArtifactTruncated mirrors TestLoadTruncated for the artifact
// path: every strided prefix of the model member fails verification (the
// content hash catches what JSON decoding alone might not), and a missing
// or truncated manifest is an error too.
func TestLoadArtifactTruncated(t *testing.T) {
	dir, _ := saveTestArtifact(t, Manifest{Version: "v000001"})
	modelPath := filepath.Join(dir, ModelFile)
	full, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{0, 1, len(full) - 1}
	for n := 2; n < len(full)-1; n += 211 {
		cuts = append(cuts, n)
	}
	for _, n := range cuts {
		if err := os.WriteFile(modelPath, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadArtifact(dir); err == nil {
			t.Fatalf("model truncated to %d of %d bytes: want error", n, len(full))
		}
	}
	if err := os.WriteFile(modelPath, full, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadArtifact(dir); err != nil {
		t.Fatalf("restored artifact failed to load: %v", err)
	}

	manPath := filepath.Join(dir, ManifestFile)
	manRaw, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, manRaw[:len(manRaw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadArtifact(dir); err == nil {
		t.Fatal("truncated manifest: want error")
	}
	if err := os.Remove(manPath); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadArtifact(dir); err == nil {
		t.Fatal("missing manifest: want error")
	}
}

// TestLoadArtifactCorrupted is the artifact counterpart of
// TestLoadCorrupted, with a stronger invariant: because the manifest pins
// the model's SHA-256, every flipped byte in the model member must be
// rejected outright — corruption can never ride a still-valid JSON
// document into the detector.
func TestLoadArtifactCorrupted(t *testing.T) {
	dir, _ := saveTestArtifact(t, Manifest{Version: "v000001"})
	modelPath := filepath.Join(dir, ModelFile)
	full, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(full); pos += 149 {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), full...)
			mut[pos] ^= flip
			if err := os.WriteFile(modelPath, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := LoadArtifact(dir); err == nil {
				t.Fatalf("byte %d flipped by %#x: corrupted model accepted", pos, flip)
			}
		}
	}
}

func TestLoadArtifactManifestMismatches(t *testing.T) {
	rewrite := func(t *testing.T, dir, from, to string) {
		t.Helper()
		manPath := filepath.Join(dir, ManifestFile)
		raw, err := os.ReadFile(manPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(raw, []byte(from)) {
			t.Fatalf("manifest lacks %q:\n%s", from, raw)
		}
		raw = bytes.Replace(raw, []byte(from), []byte(to), 1)
		if err := os.WriteFile(manPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("schema", func(t *testing.T) {
		dir, _ := saveTestArtifact(t, Manifest{Version: "v000001"})
		rewrite(t, dir, `"schemaVersion": 1`, `"schemaVersion": 99`)
		if _, _, err := LoadArtifact(dir); err == nil || !strings.Contains(err.Error(), "schema") {
			t.Fatalf("wrong-schema manifest: %v", err)
		}
	})
	t.Run("signature count", func(t *testing.T) {
		dir, _ := saveTestArtifact(t, Manifest{Version: "v000001"})
		rewrite(t, dir, `"signatures": `, `"signatures": 1`)
		if _, _, err := LoadArtifact(dir); err == nil || !strings.Contains(err.Error(), "signatures") {
			t.Fatalf("signature-count mismatch: %v", err)
		}
	})
	t.Run("hash", func(t *testing.T) {
		dir, man := saveTestArtifact(t, Manifest{Version: "v000001"})
		flipped := "f" + man.ModelSHA256[1:]
		if man.ModelSHA256[0] == 'f' {
			flipped = "0" + man.ModelSHA256[1:]
		}
		rewrite(t, dir, man.ModelSHA256, flipped)
		if _, _, err := LoadArtifact(dir); err == nil || !strings.Contains(err.Error(), "hash") {
			t.Fatalf("hash mismatch: %v", err)
		}
	})
}

func TestCorpusFingerprint(t *testing.T) {
	reqs := attackgen.NewGenerator(attackgen.CrawlProfile(), 9).Requests(50)
	a, b := CorpusFingerprint(reqs), CorpusFingerprint(reqs)
	if a != b || a == "" {
		t.Fatalf("fingerprint not deterministic: %q vs %q", a, b)
	}
	// Order matters: the fingerprint records which samples in which order.
	swapped := append([]httpx.Request(nil), reqs...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if CorpusFingerprint(swapped) == a {
		t.Fatal("fingerprint ignores order")
	}
	// Length prefixing keeps adjacent payloads from blurring together.
	if FingerprintStrings([]string{"ab", "c"}) == FingerprintStrings([]string{"a", "bc"}) {
		t.Fatal("length prefix missing: boundary collision")
	}
	if FingerprintStrings(nil) == FingerprintStrings([]string{""}) {
		t.Fatal("empty corpus and single empty payload must differ")
	}
}
