package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"psigene/internal/feature"
	"psigene/internal/httpx"
	"psigene/internal/normalize"
)

// A model artifact is a directory holding one trained signature set as a
// first-class versioned deployable: the serialized model plus a manifest
// recording where it came from (parent-version lineage, training-corpus
// fingerprint, feature-catalog revision) and what it must contain
// (content hash, signature count). Artifacts are written atomically —
// staged in a temp directory and renamed into place — and are immutable
// once written: SaveArtifact refuses to overwrite an existing directory,
// and LoadArtifact verifies the content hash before handing the model to
// a caller. Everything in the manifest is a pure function of the model
// and its lineage (no timestamps, no hostnames), so two same-seed
// lifecycle runs produce bit-identical artifacts.
const (
	// ManifestSchemaVersion guards the manifest format.
	ManifestSchemaVersion = 1
	// ManifestFile and ModelFile are the fixed artifact member names.
	ManifestFile = "manifest.json"
	ModelFile    = "model.json"
)

// Manifest describes one versioned model artifact.
type Manifest struct {
	// SchemaVersion is the manifest format version.
	SchemaVersion int `json:"schemaVersion"`
	// Version is the artifact's version name (the lifecycle store assigns
	// "v000001"-style names; psigene train and tune use the -out base
	// name).
	Version string `json:"version"`
	// Parent is the version this model was derived from by incremental
	// retraining; empty for a from-scratch bootstrap.
	Parent string `json:"parent,omitempty"`
	// ModelSHA256 is the hex SHA-256 of the serialized model bytes;
	// LoadArtifact refuses a model whose bytes do not hash to it.
	ModelSHA256 string `json:"modelSha256"`
	// CorpusFingerprint hashes the normalized training corpus (see
	// CorpusFingerprint); two models trained on the same samples in the
	// same order carry the same fingerprint.
	CorpusFingerprint string `json:"corpusFingerprint,omitempty"`
	// FeatureRevision fingerprints the model's observed feature set (see
	// feature.Revision), detecting catalog drift between trainer and
	// server.
	FeatureRevision string `json:"featureRevision"`
	// Signatures is the signature count, cross-checked on load.
	Signatures int `json:"signatures"`
	// AttackSamples records the cumulative training-corpus size.
	AttackSamples int `json:"attackSamples"`
}

// CorpusFingerprint hashes a training corpus: FNV-1a 64 over the
// normalized payload of every request, length-prefixed, in order. It is
// the manifest's record of exactly which samples shaped the model.
func CorpusFingerprint(reqs []httpx.Request) string {
	norm := make([]string, len(reqs))
	for i, r := range reqs {
		norm[i] = normalize.Normalize(r.Payload())
	}
	return FingerprintStrings(norm)
}

// FingerprintStrings hashes an ordered list of (already normalized)
// payloads; CorpusFingerprint and the lifecycle runner (which keeps the
// cumulative normalized corpus) share it.
func FingerprintStrings(norm []string) string {
	h := fnv.New64a()
	var n [8]byte
	for _, s := range norm {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		_, _ = h.Write(n[:])
		_, _ = h.Write([]byte(s))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// SaveArtifact writes the model as a versioned artifact directory at dir.
// The caller supplies the lineage fields (Version, Parent,
// CorpusFingerprint); SaveArtifact fills everything derived from the
// model itself (schema version, content hash, feature revision, counts)
// and returns the completed manifest. The write is atomic: both files are
// staged in a temp directory next to dir and renamed into place, so a
// crash mid-write leaves no half-artifact, and an existing dir is never
// overwritten.
func (m *Model) SaveArtifact(dir string, man Manifest) (Manifest, error) {
	if man.Version == "" {
		return man, fmt.Errorf("core: artifact manifest needs a version")
	}
	var buf bytes.Buffer
	if err := m.encode(&buf); err != nil {
		return man, fmt.Errorf("core: encode artifact model: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	man.SchemaVersion = ManifestSchemaVersion
	man.ModelSHA256 = hex.EncodeToString(sum[:])
	man.FeatureRevision = feature.Revision(m.Features)
	man.Signatures = len(m.Signatures)
	man.AttackSamples = m.Stats.AttackSamples

	manBytes, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return man, fmt.Errorf("core: encode manifest: %w", err)
	}
	manBytes = append(manBytes, '\n')

	// Clean first: Dir of a path with a trailing slash is the path itself.
	dir = filepath.Clean(dir)
	tmp, err := os.MkdirTemp(filepath.Dir(dir), ".artifact-*")
	if err != nil {
		return man, fmt.Errorf("core: stage artifact: %w", err)
	}
	cleanup := func() { _ = os.RemoveAll(tmp) }
	if err := os.WriteFile(filepath.Join(tmp, ModelFile), buf.Bytes(), 0o644); err != nil {
		cleanup()
		return man, fmt.Errorf("core: write artifact model: %w", err)
	}
	if err := os.WriteFile(filepath.Join(tmp, ManifestFile), manBytes, 0o644); err != nil {
		cleanup()
		return man, fmt.Errorf("core: write artifact manifest: %w", err)
	}
	if err := os.Rename(tmp, dir); err != nil {
		cleanup()
		return man, fmt.Errorf("core: publish artifact: %w", err)
	}
	return man, nil
}

// ReadManifest reads and validates just the manifest of an artifact
// directory, without loading the model.
func ReadManifest(dir string) (Manifest, error) {
	var man Manifest
	raw, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return man, fmt.Errorf("core: read artifact manifest: %w", err)
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return man, fmt.Errorf("core: decode artifact manifest: %w", err)
	}
	if man.SchemaVersion != ManifestSchemaVersion {
		return man, fmt.Errorf("core: unsupported manifest schema version %d", man.SchemaVersion)
	}
	if man.Version == "" {
		return man, fmt.Errorf("core: artifact manifest has no version")
	}
	return man, nil
}

// LoadArtifact loads a versioned artifact directory: manifest first, then
// the model, verifying the model bytes against the manifest's content
// hash and the signature count against its record. Any mismatch — a
// tampered model, a truncated write that slipped past the atomic rename,
// a manifest from another model — is an error and no model is returned.
func LoadArtifact(dir string) (*Model, Manifest, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, man, err
	}
	raw, err := os.ReadFile(filepath.Join(dir, ModelFile))
	if err != nil {
		return nil, man, fmt.Errorf("core: read artifact model: %w", err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != man.ModelSHA256 {
		return nil, man, fmt.Errorf("core: artifact %s model hash %s does not match manifest %s", man.Version, got, man.ModelSHA256)
	}
	m, err := decode(bytes.NewReader(raw))
	if err != nil {
		return nil, man, fmt.Errorf("core: artifact %s: %w", man.Version, err)
	}
	if len(m.Signatures) != man.Signatures {
		return nil, man, fmt.Errorf("core: artifact %s has %d signatures, manifest says %d", man.Version, len(m.Signatures), man.Signatures)
	}
	if rev := feature.Revision(m.Features); rev != man.FeatureRevision {
		return nil, man, fmt.Errorf("core: artifact %s feature revision %s does not match manifest %s", man.Version, rev, man.FeatureRevision)
	}
	return m, man, nil
}
