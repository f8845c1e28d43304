package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// portalPaths is one entry point per mounted portal.
var portalPaths = []string{
	"/securityfocus/",
	"/exploitdb/",
	"/packetstorm/",
	"/fulldisclosure/",
	"/osvdb/api/search",
}

// TestMuxServesEveryPortal drives the mux over a real listener: every
// portal the package doc lists answers 200, and the OSVDB API answers
// with a JSON search result.
func TestMuxServesEveryPortal(t *testing.T) {
	srv := httptest.NewServer(newMux(12, 1, 0, 1, 2))
	defer srv.Close()
	if len(portalPaths) != len(portals) {
		t.Fatalf("test covers %d portals, mux mounts %d", len(portalPaths), len(portals))
	}
	for _, path := range portalPaths {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
		if path != "/osvdb/api/search" {
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("GET %s: Content-Type %q, want application/json", path, ct)
		}
		var got struct {
			Total   int               `json:"total"`
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("GET %s: body is not JSON: %v", path, err)
		}
		if got.Total != 12 || len(got.Results) == 0 {
			t.Fatalf("GET %s: total %d with %d results, want 12 entries", path, got.Total, len(got.Results))
		}
	}
}

// TestMuxFaultInjectionDeterministic serves the portals with fault
// injection on. Every path still answers 200 once its afflicted attempts
// are spent, and two muxes built with the same fault seed produce the same
// outcome sequence. Requests are served in-process with an already
// cancelled context, so an injected hang returns at once instead of
// waiting on a wall-clock timeout.
func TestMuxFaultInjectionDeterministic(t *testing.T) {
	const repeats = 2
	transcript := func(faultSeed int64) []string {
		mux := newMux(12, 1, 0.9, faultSeed, repeats)
		var out []string
		for _, path := range portalPaths {
			for attempt := 0; attempt <= repeats; attempt++ {
				out = append(out, path+" "+serveOnce(mux, path))
			}
			if last := out[len(out)-1]; last != path+" 200" {
				t.Fatalf("fault seed %d: %s did not recover after %d attempts: %v", faultSeed, path, repeats, out)
			}
		}
		return out
	}
	first := transcript(5)
	if !reflect.DeepEqual(first, transcript(5)) {
		t.Fatalf("same fault seed, different outcomes:\n%v\n%v", first, transcript(5))
	}
	injected := 0
	for _, o := range first {
		if !strings.HasSuffix(o, " 200") {
			injected++
		}
	}
	if injected == 0 {
		t.Fatalf("fault rate 0.9 injected nothing: %v", first)
	}
}

// serveOnce serves one GET and names its outcome: the status code, plus
// "garbled" for a mangled 200 body, or "abort" when the handler aborts
// the connection (injected reset or truncation).
func serveOnce(h http.Handler, path string) (outcome string) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	defer func() {
		if r := recover(); r != nil {
			if r != http.ErrAbortHandler {
				panic(r)
			}
			outcome = "abort"
		}
	}()
	h.ServeHTTP(rec, req)
	outcome = strconv.Itoa(rec.Code)
	if rec.Body.Len() == 0 {
		outcome += " empty" // an injected hang writes nothing
	} else if strings.HasSuffix(rec.Body.String(), "\x00<garbled ") {
		outcome += " garbled"
	}
	return outcome
}
