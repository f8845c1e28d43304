package core

import (
	"fmt"
	"regexp"
	"strings"
)

// ExportBro renders the trained signature set as a Bro policy script in the
// style of the paper's implementation (§III-C): a count_all(pattern, string)
// helper, per-signature feature tables with their Θ weights, and an event
// handler that evaluates every signature's sigmoid on each HTTP request and
// raises a notice above the threshold. The output is an artifact for
// deploying pSigene on a real Bro 2.x sensor; this repository's runtime
// equivalent is CountAllDetector.
func (m *Model) ExportBro() string {
	var b strings.Builder
	b.WriteString(`##! pSigene generalized SQL injection signatures.
##! Generated by the pSigene pipeline — do not edit by hand; retrain instead.

@load base/protocols/http

module PSigene;

export {
	redef enum Notice::Type += { SQL_Injection_Attack };
}

# count_all returns the number of non-overlapping matches of a pattern.
function count_all(p: pattern, s: string): count
	{
	local n = 0;
	local rest = s;
	while ( p in rest )
		{
		local parts = split_string1(rest, p);
		if ( |parts| < 2 )
			break;
		n += 1;
		rest = parts[1];
		}
	return n;
	}

`)
	for _, s := range m.Signatures {
		fmt.Fprintf(&b, "# Signature %d: %.0f training samples, %d features (of %d from biclustering).\n",
			s.ID, s.SampleWeight, len(s.Features), s.BiclusterFeatures)
		fmt.Fprintf(&b, "const sig%d_bias = %.6f;\n", s.ID, s.Model.Bias)
		for i, j := range s.Features {
			f := m.Features.Features[j]
			pat := f.Pattern
			if f.Word != "" {
				pat = `\b` + regexp.QuoteMeta(f.Word) + `\b`
			}
			fmt.Fprintf(&b, "const sig%d_f%d = /%s/;\t# weight %.6f (%s)\n",
				s.ID, i, escapeBroPattern(pat), s.Model.Weights[i], escapeBroComment(f.Name))
		}
		b.WriteString("\n")
	}

	b.WriteString(`function sigmoid(z: double): double
	{
	return 1.0 / (1.0 + exp(-z));
	}

event http_request(c: connection, method: string, original_URI: string,
                   unescaped_URI: string, version: string)
	{
	local uri = to_lower(unescaped_URI);
`)
	for si, s := range m.Signatures {
		fmt.Fprintf(&b, "\tlocal z%d = sig%d_bias", s.ID, s.ID)
		for i := range s.Features {
			fmt.Fprintf(&b, "\n\t\t+ %.6f * count_all(sig%d_f%d, uri)", s.Model.Weights[i], s.ID, i)
		}
		b.WriteString(";\n")
		fmt.Fprintf(&b, "\tif ( sigmoid(z%d) >= %.4f )\n", s.ID, m.thresholds[si])
		fmt.Fprintf(&b, "\t\tNOTICE([$note=SQL_Injection_Attack, $conn=c,\n\t\t        $msg=fmt(\"pSigene signature %d (p=%%.4f)\", sigmoid(z%d)), $uid=c$uid]);\n\n", s.ID, s.ID)
	}
	b.WriteString("\t}\n")
	return b.String()
}

// escapeBroPattern adapts an RE2 pattern for Bro's pattern literal syntax:
// forward slashes must be escaped.
func escapeBroPattern(p string) string {
	return strings.ReplaceAll(p, "/", `\/`)
}

// escapeBroComment keeps feature names from breaking out of the comment.
func escapeBroComment(s string) string {
	return strings.ReplaceAll(strings.ReplaceAll(s, "\n", " "), "\r", " ")
}
