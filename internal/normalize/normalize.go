// Package normalize implements the five sample transformations pSigene
// applies to crawled attack samples before feature extraction (§II-A):
//
//  1. uppercase → lowercase
//  2. URL encoding → ASCII (percent-decoding, '+' as space)
//  3. unicode → ASCII (IIS-style %uXXXX escapes and fullwidth forms)
//  4. HTML entities → characters
//  5. whitespace canonicalization (tabs, newlines, repeated blanks → one space)
//
// Normalize applies all five in that order. Decoding runs to a bounded
// fixpoint so double-encoded payloads (%2527 → %27 → ') normalize the same
// way single-encoded ones do.
package normalize

import (
	"strings"
	"unicode"
)

// maxDecodePasses bounds the decode-to-fixpoint loop; real payloads are at
// most double- or triple-encoded.
const maxDecodePasses = 4

// Normalize applies the full five-transformation pipeline. It delegates
// to Buffer, the allocation-free byte implementation the serving path
// holds per session, so the training and serving views of a sample are
// one code path. The individual exported transformations below remain
// the reference implementations; parity tests compare the two.
func Normalize(s string) string {
	var nb Buffer
	return string(nb.Normalize(s))
}

// NormalizeReference is the composed string-transformation pipeline the
// package documentation describes, kept as the oracle the Buffer path is
// parity-tested against (TestBufferMatchesReference).
func NormalizeReference(s string) string {
	prev := s
	for i := 0; i < maxDecodePasses; i++ {
		next := URLDecode(prev)
		next = UnicodeToASCII(next)
		if next == prev {
			break
		}
		prev = next
	}
	prev = HTMLEntityDecode(prev)
	prev = Lowercase(prev)
	return CollapseWhitespace(prev)
}

// Lowercase is transformation 1: ASCII case folding.
func Lowercase(s string) string { return strings.ToLower(s) }

func hexVal(b byte) (byte, bool) {
	switch {
	case b >= '0' && b <= '9':
		return b - '0', true
	case b >= 'a' && b <= 'f':
		return b - 'a' + 10, true
	case b >= 'A' && b <= 'F':
		return b - 'A' + 10, true
	}
	return 0, false
}

// URLDecode is transformation 2: percent-decoding with '+' treated as a
// space, tolerant of malformed escapes (left as-is rather than erroring —
// attack payloads are frequently malformed on purpose).
func URLDecode(s string) string {
	if !strings.ContainsAny(s, "%+") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case '+':
			b.WriteByte(' ')
		case '%':
			if i+2 < len(s) {
				hi, ok1 := hexVal(s[i+1])
				lo, ok2 := hexVal(s[i+2])
				if ok1 && ok2 {
					b.WriteByte(hi<<4 | lo)
					i += 2
					continue
				}
			}
			b.WriteByte(c)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// UnicodeToASCII is transformation 3: it decodes IIS-style %uXXXX escapes
// and maps fullwidth/compatibility forms (Ｕ ＮＩＯＮ, ＇) to their ASCII
// equivalents, leaving other runes untouched.
func UnicodeToASCII(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		if s[i] == '%' && i+5 < len(s) && (s[i+1] == 'u' || s[i+1] == 'U') {
			h1, ok1 := hexVal(s[i+2])
			h2, ok2 := hexVal(s[i+3])
			h3, ok3 := hexVal(s[i+4])
			h4, ok4 := hexVal(s[i+5])
			if ok1 && ok2 && ok3 && ok4 {
				r := rune(h1)<<12 | rune(h2)<<8 | rune(h3)<<4 | rune(h4)
				b.WriteRune(foldToASCII(r))
				i += 6
				continue
			}
		}
		r, size := decodeRune(s[i:])
		b.WriteRune(foldToASCII(r))
		i += size
	}
	return b.String()
}

// decodeRune reads one rune, treating invalid UTF-8 bytes as Latin-1 so
// that raw high bytes in payloads survive rather than becoming U+FFFD.
func decodeRune(s string) (rune, int) {
	if s[0] < 0x80 {
		return rune(s[0]), 1
	}
	for _, r := range s { // first rune only
		if r == unicode.ReplacementChar {
			return rune(s[0]), 1
		}
		return r, len(string(r))
	}
	return rune(s[0]), 1
}

// foldToASCII maps fullwidth forms (U+FF01–U+FF5E) onto ASCII 0x21–0x7E and
// the ideographic space onto a plain space.
func foldToASCII(r rune) rune {
	switch {
	case r >= 0xFF01 && r <= 0xFF5E:
		return r - 0xFF01 + 0x21
	case r == 0x3000: // ideographic space
		return ' '
	}
	return r
}

// htmlEntities is the small set of named entities that appear in web attack
// payloads; numeric entities are decoded generically.
var htmlEntities = map[string]rune{
	"amp": '&', "lt": '<', "gt": '>', "quot": '"', "apos": '\'',
	"nbsp": ' ', "sol": '/', "num": '#', "semi": ';', "equals": '=',
}

// HTMLEntityDecode is transformation 4: named and numeric entity decoding
// (&#39; &#x27; &quot; …). Unknown or unterminated entities pass through.
func HTMLEntityDecode(s string) string {
	amp := strings.IndexByte(s, '&')
	if amp < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi <= 1 || semi > 10 {
			b.WriteByte(c)
			i++
			continue
		}
		name := s[i+1 : i+semi]
		if r, ok := htmlEntities[strings.ToLower(name)]; ok {
			b.WriteRune(r)
			i += semi + 1
			continue
		}
		if name[0] == '#' {
			if r, ok := parseNumericEntity(name[1:]); ok {
				b.WriteRune(r)
				i += semi + 1
				continue
			}
		}
		b.WriteByte(c)
		i++
	}
	return b.String()
}

func parseNumericEntity[T ~string | ~[]byte](s T) (rune, bool) {
	if len(s) == 0 {
		return 0, false
	}
	base := 10
	if s[0] == 'x' || s[0] == 'X' {
		base = 16
		s = s[1:]
		if len(s) == 0 {
			return 0, false
		}
	}
	var v rune
	for i := 0; i < len(s); i++ {
		d, ok := hexVal(s[i])
		if !ok || (base == 10 && d > 9) {
			return 0, false
		}
		v = v*rune(base) + rune(d)
		if v > 0x10FFFF {
			return 0, false
		}
	}
	return v, true
}

// CollapseWhitespace is transformation 5: every run of whitespace
// (space, tab, CR, LF, FF, VT) becomes a single space; leading and trailing
// whitespace is removed.
func CollapseWhitespace(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	inWS := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v' {
			inWS = true
			continue
		}
		if inWS && b.Len() > 0 {
			b.WriteByte(' ')
		}
		inWS = false
		b.WriteByte(c)
	}
	return b.String()
}
