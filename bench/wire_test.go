package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"psigene/internal/httpx"
)

// Every pooled request, rendered to wire bytes, must parse back to the
// same view through both the repository's own request-line parser and
// net/http's server-side parser (what the daemon will do).
func TestWireRoundTrip(t *testing.T) {
	for _, w := range workloads {
		pool := w.build(7, true)
		for i, r := range pool {
			wr, err := buildWire(r)
			if err != nil {
				t.Fatalf("%s[%d]: %v", w.name, i, err)
			}
			raw := wr.appendTo(nil, 4242)
			line, _, _ := strings.Cut(string(raw), "\r\n")
			parsed, err := httpx.ParseRequestLine(line)
			if err != nil {
				t.Fatalf("%s[%d]: ParseRequestLine(%q): %v", w.name, i, line, err)
			}
			if parsed.Method != r.Method || parsed.Path != r.Path || parsed.RawQuery != r.RawQuery {
				t.Fatalf("%s[%d]: request line %q parsed to %+v, want %+v", w.name, i, line, parsed, r)
			}
			hr, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
			if err != nil {
				t.Fatalf("%s[%d]: http.ReadRequest: %v", w.name, i, err)
			}
			body, _ := io.ReadAll(hr.Body)
			if hr.URL.RawQuery != r.RawQuery || hr.Host != r.Host || string(body) != r.Body {
				t.Fatalf("%s[%d]: net/http sees query %q host %q body %d bytes, want %q %q %d", w.name, i, hr.URL.RawQuery, hr.Host, len(body), r.RawQuery, r.Host, len(r.Body))
			}
			if got := hr.Header.Get(clientKeyHdr); got != "c4242" {
				t.Fatalf("%s[%d]: caller key header %q", w.name, i, got)
			}
		}
	}
}

func TestBuildWireRejectsUnsafeTargets(t *testing.T) {
	for _, q := range []string{"a=b c", "a=\x01", "a=\xff"} {
		if _, err := buildWire(httpx.Request{Method: "GET", Host: "h", Path: "/p", RawQuery: q}); err == nil {
			t.Errorf("query %q accepted", q)
		}
	}
}

func TestReadResponse(t *testing.T) {
	stream := "HTTP/1.1 403 Forbidden\r\nContent-Type: text/plain\r\ncontent-length: 5\r\n\r\nnope\n" +
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
	br := bufio.NewReader(strings.NewReader(stream))
	for _, want := range []int{403, 200} {
		got, err := readResponse(br)
		if err != nil || got != want {
			t.Fatalf("readResponse = %d, %v; want %d", got, err, want)
		}
	}
	if _, err := readResponse(br); err != io.EOF {
		t.Errorf("after the last response: %v, want io.EOF", err)
	}
	if _, err := readResponse(bufio.NewReader(strings.NewReader("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"))); err == nil {
		t.Error("a response without Content-Length was accepted")
	}
}
