package core

import (
	"fmt"
	"strings"
	"testing"
)

func TestExportBro(t *testing.T) {
	m := smallModel(t)
	script := m.ExportBro()

	for _, want := range []string{
		"module PSigene;",
		"function count_all",
		"function sigmoid",
		"event http_request",
		"SQL_Injection_Attack",
	} {
		if !strings.Contains(script, want) {
			t.Fatalf("exported script missing %q", want)
		}
	}
	// Every signature appears with its bias and feature patterns.
	thresholds := m.Thresholds()
	for si, s := range m.Signatures {
		if !strings.Contains(script, fmt.Sprintf("sig%d_bias", s.ID)) {
			t.Fatalf("signature %d bias missing", s.ID)
		}
		for i := range s.Features {
			if !strings.Contains(script, fmt.Sprintf("sig%d_f%d", s.ID, i)) {
				t.Fatalf("signature %d feature %d missing", s.ID, i)
			}
		}
		if !strings.Contains(script, fmt.Sprintf(">= %.4f", thresholds[si])) {
			t.Fatalf("signature %d threshold missing", s.ID)
		}
	}
	// Bro pattern literals cannot contain a bare forward slash.
	for _, line := range strings.Split(script, "\n") {
		if !strings.Contains(line, " = /") {
			continue
		}
		body := line[strings.Index(line, " = /")+4:]
		if end := strings.Index(body, "/;"); end >= 0 {
			body = body[:end]
		}
		for i := 0; i < len(body); i++ {
			if body[i] == '/' && (i == 0 || body[i-1] != '\\') {
				t.Fatalf("unescaped slash in pattern line: %s", line)
			}
		}
	}
}

func TestExportBroDeterministic(t *testing.T) {
	m := smallModel(t)
	if m.ExportBro() != m.ExportBro() {
		t.Fatal("export must be deterministic")
	}
}
