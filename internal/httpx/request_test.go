package httpx

import "testing"

func TestParseURL(t *testing.T) {
	cases := []struct {
		in                         string
		host, path, query, payload string
	}{
		{"http://example.com/a/b.jsp?id=1", "example.com", "/a/b.jsp", "id=1", "id=1"},
		{"http://example.com:8080/x?q=1&r=2", "example.com", "/x", "q=1&r=2", "q=1&r=2"},
		{"/local/path?a=b", "", "/local/path", "a=b", "a=b"},
		{"http://host.only", "host.only", "/", "", ""},
		{"/plain", "", "/plain", "", ""},
		{"?leading=1", "", "/", "leading=1", "leading=1"},
		{"/p?x=a?b", "", "/p", "x=a?b", "x=a?b"}, // only the first ? splits
		// Attacker-written sample URLs: lenient structural parsing only.
		{"?", "", "/", "", ""},                         // bare ?
		{"??a=b", "", "/", "?a=b", "?a=b"},             // doubled ?
		{"  /p?id=1  ", "", "/p", "id=1", "id=1"},      // stray whitespace
		{"/p?id=%zz'", "", "/p", "id=%zz'", "id=%zz'"}, // broken escape kept raw
	}
	for _, c := range cases {
		r, err := ParseURL(c.in)
		if err != nil {
			t.Fatalf("ParseURL(%q): %v", c.in, err)
		}
		if r.Host != c.host || r.Path != c.path || r.RawQuery != c.query {
			t.Fatalf("ParseURL(%q) = %+v", c.in, r)
		}
		if got := r.Payload(); got != c.payload {
			t.Fatalf("Payload(%q) = %q, want %q", c.in, got, c.payload)
		}
	}
	if _, err := ParseURL(""); err == nil {
		t.Fatal("empty URL: want error")
	}
}

func TestPayloadIncludesBody(t *testing.T) {
	r := Request{Method: "POST", RawQuery: "a=1", Body: "user=x&pass=y"}
	if got := r.Payload(); got != "a=1&user=x&pass=y" {
		t.Fatalf("Payload=%q", got)
	}
	r = Request{Method: "POST", Body: "user=x"}
	if got := r.Payload(); got != "user=x" {
		t.Fatalf("Payload=%q", got)
	}
}

func TestURLRoundTrip(t *testing.T) {
	r := Request{Path: "/a", RawQuery: "b=c"}
	if got := r.URL(); got != "/a?b=c" {
		t.Fatalf("URL=%q", got)
	}
	r.RawQuery = ""
	if got := r.URL(); got != "/a" {
		t.Fatalf("URL=%q", got)
	}
}

func TestParseParams(t *testing.T) {
	ps := ParseParams("id=1&name=o'brien&flag&empty=&x=a=b")
	want := []Param{
		{"id", "1"}, {"name", "o'brien"}, {"flag", ""}, {"empty", ""}, {"x", "a=b"},
	}
	if len(ps) != len(want) {
		t.Fatalf("got %d params %v, want %d", len(ps), ps, len(want))
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Fatalf("param %d = %+v, want %+v", i, ps[i], want[i])
		}
	}
}

func TestParseParamsSemicolonSeparator(t *testing.T) {
	ps := ParseParams("a=1;b=2")
	if len(ps) != 2 || ps[1].Name != "b" {
		t.Fatalf("params=%v", ps)
	}
}

func TestDecodeComponent(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"plain", "plain"},
		{"a+b", "a b"},
		{"%27or%271%27%3D%271", "'or'1'='1"},
		{"%41%62c", "Abc"},
		{"%2Bliteral", "+literal"}, // encoded plus decodes to plus, not space
		// Malformed escapes survive literally instead of erroring.
		{"%", "%"},
		{"%2", "%2"},
		{"100%", "100%"},
		{"%zz", "%zz"},
		{"%' or 1=1", "%' or 1=1"},
		{"%g1%41", "%g1A"}, // bad escape kept, good escape still decoded
	}
	for _, c := range cases {
		if got := DecodeComponent(c.in); got != c.want {
			t.Fatalf("DecodeComponent(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseParamsEmpty(t *testing.T) {
	if got := ParseParams(""); got != nil {
		t.Fatalf("ParseParams(\"\")=%v, want nil", got)
	}
	if got := ParseParams("&&"); len(got) != 0 {
		t.Fatalf("ParseParams(\"&&\")=%v, want empty", got)
	}
}
