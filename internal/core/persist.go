package core

import (
	"encoding/json"
	"fmt"
	"io"

	"psigene/internal/feature"
	"psigene/internal/ml"
)

// modelJSON is the serialized form of a trained signature set. Only what
// the runtime engine needs is persisted: the observed feature set and the
// signatures. Training state lives on Trainer and is not serialized.
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

// encode writes the model to w as JSON: the model.json member of an
// artifact (see SaveArtifact).
func (m *Model) encode(w io.Writer) error {
	out := modelJSON{Version: modelVersion, Binary: m.binary, Stats: m.Stats}
	for _, f := range m.Features.Features {
		out.Features = append(out.Features, featureJSON{
			Name: f.Name, Source: int(f.Source), Word: f.Word, Pattern: f.Pattern,
		})
	}
	for i, s := range m.Signatures {
		out.Signatures = append(out.Signatures, signatureJSON{
			ID:                s.ID,
			SampleWeight:      s.SampleWeight,
			BiclusterFeatures: s.BiclusterFeatures,
			Features:          s.Features,
			Bias:              s.Model.Bias,
			Weights:           s.Model.Weights,
			Threshold:         m.thresholds[i],
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// decode reads a model written by encode.
func decode(r io.Reader) (*Model, error) {
	var in modelJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: decode model: %w", err)
	}
	if in.Version != modelVersion {
		return nil, fmt.Errorf("core: unsupported model version %d", in.Version)
	}
	m := &Model{Stats: in.Stats, binary: in.Binary}
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
		// A repeated column would make the dense and sparse scorers
		// disagree: the sparse weight table keeps only its last weight.
		seen := make(map[int]bool, len(s.Features))
		for _, j := range s.Features {
			if j < 0 || j >= m.Features.Len() {
				return nil, fmt.Errorf("core: signature %d references feature %d of %d", s.ID, j, m.Features.Len())
			}
			if seen[j] {
				return nil, fmt.Errorf("core: signature %d lists feature %d twice", s.ID, j)
			}
			seen[j] = true
		}
		m.Signatures = append(m.Signatures, &Signature{
			ID:                s.ID,
			SampleWeight:      s.SampleWeight,
			BiclusterFeatures: s.BiclusterFeatures,
			Features:          s.Features,
			Model:             &ml.LogisticModel{Bias: s.Bias, Weights: s.Weights},
		})
		m.thresholds = append(m.thresholds, s.Threshold)
	}
	if len(m.Signatures) == 0 {
		return nil, fmt.Errorf("core: model has no signatures")
	}
	return m, nil
}
