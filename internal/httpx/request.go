// Package httpx provides the small HTTP request model shared by the traffic
// generators, the IDS engines, and the pSigene pipeline: a parsed GET/POST
// request and the payload-extraction rule the paper uses ("we extract the
// SQL query from the HTTP request payload by leaving out the HTTP address,
// the port, and the path — typically a ? indicates the start of the query
// string").
package httpx

import (
	"fmt"
	"strings"
)

// Request is one HTTP request as seen by a network IDS.
type Request struct {
	// Method is the HTTP method (GET, POST, ...).
	Method string
	// Host is the target host (without port).
	Host string
	// Path is the URL path, without the query string.
	Path string
	// RawQuery is everything after the first '?', undecoded.
	RawQuery string
	// Body is the request body for POST requests (form-encoded), undecoded.
	Body string
	// Malicious is the ground-truth label carried by generated datasets; it
	// is never consulted by any detector.
	Malicious bool
	// Tool identifies the generator that produced the request (sqlmap,
	// arachni, vega, benign, crawl, ...), for per-set reporting.
	Tool string
}

// ParseURL builds a Request from a raw URL string such as
// "http://host:8080/app/page.jsp?id=1+or+1%3D1". Scheme, host and port are
// optional; everything after the first '?' becomes RawQuery. Crawled sample
// URLs are attacker-written and often deliberately malformed (bare '?',
// stray whitespace, broken percent escapes), so parsing is lenient: it
// splits on structure only and never rejects a payload for its content —
// the payload IS the signal.
func ParseURL(raw string) (Request, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return Request{}, fmt.Errorf("httpx: empty URL")
	}
	r := Request{Method: "GET"}
	rest := raw
	if i := strings.Index(rest, "://"); i >= 0 {
		rest = rest[i+3:]
		// host[:port]/...
		slash := strings.IndexByte(rest, '/')
		var hostport string
		if slash < 0 {
			hostport, rest = rest, ""
		} else {
			hostport, rest = rest[:slash], rest[slash:]
		}
		if c := strings.IndexByte(hostport, ':'); c >= 0 {
			hostport = hostport[:c]
		}
		r.Host = hostport
	}
	if q := strings.IndexByte(rest, '?'); q >= 0 {
		r.Path, r.RawQuery = rest[:q], rest[q+1:]
	} else {
		r.Path = rest
	}
	if r.Path == "" {
		r.Path = "/"
	}
	return r, nil
}

// ParseRequestLine builds a Request from an HTTP request line such as
// "GET /app/page.jsp?id=1+or+1%3D1 HTTP/1.1". The HTTP-version field is
// optional and ignored; the target may be an absolute URL or an
// origin-form path. Like ParseURL it is lenient — gateway access logs and
// replay files carry attacker-written targets (embedded spaces, bare '?',
// broken escapes), so a target with spaces is recovered by treating only
// a trailing HTTP/x token as the version and keeping the rest as target.
// Only an empty line or a line with no target is rejected.
// Kept for bench's TestWireRoundTrip and FuzzParseRequestLine.
func ParseRequestLine(line string) (Request, error) {
	line = strings.TrimSpace(line)
	if line == "" {
		return Request{}, fmt.Errorf("httpx: empty request line")
	}
	method := "GET"
	rest := line
	// A bare token is a target, not a method.
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		method, rest = rest[:sp], strings.TrimSpace(rest[sp+1:])
	}
	if rest == "" {
		return Request{}, fmt.Errorf("httpx: request line %q has no target", line)
	}
	// Strip a trailing version token only if it looks like one; payloads
	// may legitimately contain spaces.
	if sp := strings.LastIndexByte(rest, ' '); sp >= 0 {
		if v := rest[sp+1:]; strings.HasPrefix(v, "HTTP/") {
			rest = strings.TrimSpace(rest[:sp])
		}
	}
	if rest == "" {
		return Request{}, fmt.Errorf("httpx: request line %q has no target", line)
	}
	r, err := ParseURL(rest)
	if err != nil {
		return Request{}, err
	}
	r.Method = strings.ToUpper(method)
	return r, nil
}

// Payload returns the part of the request a signature is matched against:
// the query string, plus the body for POST requests. Host, port, and path
// are excluded per the paper's extraction rule.
func (r Request) Payload() string {
	if r.Body == "" {
		return r.RawQuery
	}
	if r.RawQuery == "" {
		return r.Body
	}
	return r.RawQuery + "&" + r.Body
}

// AppendPayload appends Payload to dst and returns it — the
// allocation-free request view the serving hot path scores, identical
// byte for byte to Payload.
func (r Request) AppendPayload(dst []byte) []byte {
	if r.Body == "" {
		return append(dst, r.RawQuery...)
	}
	if r.RawQuery == "" {
		return append(dst, r.Body...)
	}
	dst = append(dst, r.RawQuery...)
	dst = append(dst, '&')
	return append(dst, r.Body...)
}

// URL reconstructs the request target (path plus query) for logging.
func (r Request) URL() string {
	if r.RawQuery == "" {
		return r.Path
	}
	return r.Path + "?" + r.RawQuery
}

// DecodeComponent percent-decodes a query component, treating '+' as a
// space. Unlike net/url's decoder it never fails: a malformed escape (bare
// or truncated '%', non-hex digits — common in hand-crafted SQLi payloads
// like "%' or 1=1") is kept literally. Decoding always succeeds, so every
// crawled payload survives into the corpus.
func DecodeComponent(s string) string {
	if !strings.ContainsAny(s, "%+") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '+':
			b.WriteByte(' ')
		case '%':
			if i+2 < len(s) {
				hi, ok1 := unhex(s[i+1])
				lo, ok2 := unhex(s[i+2])
				if ok1 && ok2 {
					b.WriteByte(hi<<4 | lo)
					i += 2
					continue
				}
			}
			b.WriteByte('%')
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// Param is one name=value pair of a query string, undecoded, in original
// order.
type Param struct {
	Name, Value string
}

// ParseParams splits a raw query string into ordered name/value pairs
// without decoding. Pairs are separated by '&' (or ';'); a pair without '='
// yields an empty Value. Fields that carry nothing at all ("", "=") are
// skipped — every returned pair has a name or a value.
func ParseParams(rawQuery string) []Param {
	if rawQuery == "" {
		return nil
	}
	fields := strings.FieldsFunc(rawQuery, func(r rune) bool { return r == '&' || r == ';' })
	out := make([]Param, 0, len(fields))
	for _, f := range fields {
		if f == "" {
			continue
		}
		if eq := strings.IndexByte(f, '='); eq >= 0 {
			if f == "=" {
				continue
			}
			out = append(out, Param{Name: f[:eq], Value: f[eq+1:]})
		} else {
			out = append(out, Param{Name: f})
		}
	}
	return out
}
