package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"psigene/internal/feature"
	"psigene/internal/ml"
)

// modelJSON is the serialized form of a trained signature set. Only what
// the runtime engine needs is persisted: the observed feature set and the
// signatures. Training state (for incremental updates) is not serialized;
// a loaded model detects but cannot Update.
type modelJSON struct {
	Version    int             `json:"version"`
	Features   []featureJSON   `json:"features"`
	Signatures []signatureJSON `json:"signatures"`
	Binary     bool            `json:"binaryFeatures,omitempty"`
	Stats      TrainStats      `json:"stats"`
}

type featureJSON struct {
	Name    string `json:"name"`
	Source  int    `json:"source"`
	Word    string `json:"word,omitempty"`
	Pattern string `json:"pattern,omitempty"`
}

type signatureJSON struct {
	ID                int       `json:"id"`
	SampleWeight      float64   `json:"sampleWeight"`
	BiclusterFeatures int       `json:"biclusterFeatures"`
	Features          []int     `json:"features"`
	Bias              float64   `json:"bias"`
	Weights           []float64 `json:"weights"`
	Threshold         float64   `json:"threshold"`
}

const modelVersion = 1

// Save writes the model to w as JSON.
func (m *Model) Save(w io.Writer) error {
	out := modelJSON{Version: modelVersion, Binary: m.binary, Stats: m.Stats}
	for _, f := range m.Features.Features {
		out.Features = append(out.Features, featureJSON{
			Name: f.Name, Source: int(f.Source), Word: f.Word, Pattern: f.Pattern,
		})
	}
	for _, s := range m.Signatures {
		out.Signatures = append(out.Signatures, signatureJSON{
			ID:                s.ID,
			SampleWeight:      s.SampleWeight,
			BiclusterFeatures: s.BiclusterFeatures,
			Features:          s.Features,
			Bias:              s.Model.Bias,
			Weights:           s.Model.Weights,
			Threshold:         s.Threshold,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// SaveFile writes the model to path.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return fmt.Errorf("save model: %w", err)
	}
	return nil
}

// Load reads a model saved with Save. The result detects (Inspect,
// Probabilities) but does not retain training state, so Update returns an
// error.
func Load(r io.Reader) (*Model, error) {
	var in modelJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: decode model: %w", err)
	}
	if in.Version != modelVersion {
		return nil, fmt.Errorf("core: unsupported model version %d", in.Version)
	}
	m := &Model{Stats: in.Stats, binary: in.Binary, threshold: 0.5}
	for _, f := range in.Features {
		m.Features.Features = append(m.Features.Features, feature.Feature{
			Name: f.Name, Source: feature.Source(f.Source), Word: f.Word, Pattern: f.Pattern,
		})
	}
	ex, err := feature.NewExtractor(m.Features)
	if err != nil {
		return nil, fmt.Errorf("core: rebuild extractor: %w", err)
	}
	m.extractor = ex
	for _, s := range in.Signatures {
		if len(s.Features) != len(s.Weights) {
			return nil, fmt.Errorf("core: signature %d has %d features but %d weights", s.ID, len(s.Features), len(s.Weights))
		}
		for _, j := range s.Features {
			if j < 0 || j >= m.Features.Len() {
				return nil, fmt.Errorf("core: signature %d references feature %d of %d", s.ID, j, m.Features.Len())
			}
		}
		m.Signatures = append(m.Signatures, &Signature{
			ID:                s.ID,
			SampleWeight:      s.SampleWeight,
			BiclusterFeatures: s.BiclusterFeatures,
			Features:          s.Features,
			Model:             &ml.LogisticModel{Bias: s.Bias, Weights: s.Weights},
			Threshold:         s.Threshold,
		})
	}
	if len(m.Signatures) == 0 {
		return nil, fmt.Errorf("core: model has no signatures")
	}
	return m, nil
}
