package httpx

import (
	"strings"
	"testing"
)

// The gateway feeds these decoders raw attacker bytes straight off the
// wire, so the fuzz contract is the resilience contract: no input may
// panic, and the never-error decoders (DecodeComponent, ParseParams) must
// accept everything. ParseURL/ParseRequestLine may
// reject only structurally empty input — a payload is never invalid for
// its content.

func fuzzSeeds(f *testing.F) {
	for _, s := range []string{
		"",
		" ",
		"id=1",
		"id=1%27+OR+1%3D1--",
		"%",
		"%2",
		"%zz",
		"%' or 1=1",
		"a%00b%ffc",
		"+++",
		"a=1&b=2;c=3&&;=x",
		"?",
		"/page.php?id=1 union select 1,2--",
		"http://host:8080/app/page.jsp?id=1+or+1%3D1",
		"GET /app/x.php?q=%27 HTTP/1.1",
		"POST http://h/p?a=b HTTP/1.0",
		"get  /двойной?q=\x00\x01\x02",
		strings.Repeat("%", 300) + strings.Repeat("+", 300),
	} {
		f.Add(s)
	}
}

func FuzzDecodeComponent(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, s string) {
		out := DecodeComponent(s)
		// Decoding never grows the input: '+' maps 1:1, a valid %XX
		// shrinks three bytes to one, a broken '%' is kept literally.
		if len(out) > len(s) {
			t.Fatalf("DecodeComponent(%q) grew %d -> %d bytes", s, len(s), len(out))
		}
		// Inputs without escape characters pass through untouched.
		if !strings.ContainsAny(s, "%+") && out != s {
			t.Fatalf("DecodeComponent(%q) = %q, want identity", s, out)
		}
	})
}

func FuzzParseRequestLine(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, s string) {
		req, err := ParseRequestLine(s)
		if err != nil {
			// Rejection is allowed only for structurally empty lines: a
			// non-empty target must always parse.
			fields := strings.Fields(s)
			if len(fields) > 1 {
				t.Fatalf("ParseRequestLine(%q) rejected a line with a target: %v", s, err)
			}
			return
		}
		if req.Path == "" {
			t.Fatalf("ParseRequestLine(%q) returned an empty path", s)
		}
		// The parsed request must survive the rest of the pipeline.
		_ = req.Payload()
		_ = req.URL()
		_ = ParseParams(req.RawQuery)
	})
}

func FuzzParseParams(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, s string) {
		params := ParseParams(s)
		for _, p := range params {
			if p.Name == "" && p.Value == "" {
				t.Fatalf("ParseParams(%q) produced an empty pair", s)
			}
		}
		// ParseURL is lenient by contract: any non-empty input parses.
		if strings.TrimSpace(s) != "" {
			if _, err := ParseURL(s); err != nil {
				t.Fatalf("ParseURL(%q) rejected non-empty input: %v", s, err)
			}
		}
	})
}
