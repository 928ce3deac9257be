package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// promFamily is one metric family reconstructed by the strict parser.
type promFamily struct {
	help    string
	kind    string
	samples []promSample
}

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parsePromStrict is a full validator for the Prometheus text exposition
// format (version 0.0.4), stricter than promtool's lint in the ways this
// repo has been bitten: it requires a # HELP and # TYPE line per family
// (HELP first), rejects duplicate declarations, verifies metric and label
// names against the format's alphabet, and decodes label-value escapes —
// so an unescaped quote or backslash in a label value fails the scrape
// instead of silently corrupting it.
func parsePromStrict(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	fams := map[string]*promFamily{}
	var current string
	validName := func(s string) bool {
		for i, r := range s {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			case r >= '0' && r <= '9':
				if i == 0 {
					return false
				}
			default:
				return false
			}
		}
		return len(s) > 0
	}
	// unquoteLabel decodes exactly the three escapes the format defines.
	unquoteLabel := func(s string) (string, bool) {
		var b strings.Builder
		for i := 0; i < len(s); i++ {
			c := s[i]
			switch c {
			case '\\':
				i++
				if i >= len(s) {
					return "", false
				}
				switch s[i] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return "", false
				}
			case '"', '\n':
				return "", false
			default:
				b.WriteByte(c)
			}
		}
		return b.String(), true
	}
	familyOf := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if f, ok := fams[base]; ok && f.kind == "histogram" {
				return base
			}
		}
		return name
	}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, found := strings.Cut(rest, " ")
			if !found || !validName(name) {
				t.Fatalf("bad HELP line %q", line)
			}
			if _, dup := fams[name]; dup {
				t.Fatalf("duplicate HELP for %q", name)
			}
			if strings.ContainsAny(help, "\n") || strings.Contains(help, `\`) &&
				!strings.Contains(help, `\\`) && !strings.Contains(help, `\n`) {
				t.Fatalf("unescaped HELP text in %q", line)
			}
			fams[name] = &promFamily{help: help}
			current = name
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, found := strings.Cut(rest, " ")
			if !found || !validName(name) {
				t.Fatalf("bad TYPE line %q", line)
			}
			f, ok := fams[name]
			if !ok {
				t.Fatalf("TYPE %q precedes its HELP line", name)
			}
			if f.kind != "" {
				t.Fatalf("duplicate TYPE for %q", name)
			}
			switch kind {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("bad kind in %q", line)
			}
			f.kind = kind
			current = name
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment: legal, ignored
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("no value separator in %q", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		s := promSample{name: series, labels: map[string]string{}}
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unbalanced labels in %q", line)
			}
			s.name = series[:i]
			body := series[i+1 : len(series)-1]
			for _, pair := range strings.Split(body, ",") {
				k, v, ok := strings.Cut(pair, "=")
				if !ok || !validName(k) {
					t.Fatalf("bad label pair %q in %q", pair, line)
				}
				if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
					t.Fatalf("unquoted label value %q in %q", v, line)
				}
				dec, ok := unquoteLabel(v[1 : len(v)-1])
				if !ok {
					t.Fatalf("bad label escaping in %q", line)
				}
				s.labels[k] = dec
			}
		}
		if !validName(s.name) {
			t.Fatalf("illegal metric name %q in %q", s.name, line)
		}
		var err error
		if s.value, err = strconv.ParseFloat(valStr, 64); err != nil {
			t.Fatalf("bad value %q in %q: %v", valStr, line, err)
		}
		fam := familyOf(s.name)
		f, ok := fams[fam]
		if !ok || f.kind == "" {
			t.Fatalf("sample %q precedes its HELP/TYPE declarations", line)
		}
		if fam != current {
			t.Fatalf("sample %q interleaves into family %q while %q is open", line, fam, current)
		}
		f.samples = append(f.samples, s)
	}
	return fams
}

// TestMetricsEndpointStrictScrape is the regression test for the exposition
// fixes: every family scraped from /debug/metrics must carry HELP and TYPE
// lines, histogram buckets must be cumulative with le values that parse
// after unescaping, and the HELP docstring must round the sanitized name
// back to the dotted registry name.
func TestMetricsEndpointStrictScrape(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("strict.deadletters").Add(5)
	reg.Gauge("strict.links", func() int64 { return 2 })
	h := reg.Histogram("strict.wait_ns")
	h.Observe(200 * time.Nanosecond)
	h.Observe(70 * time.Microsecond)
	h.Observe(2 * time.Millisecond)

	srv := httptest.NewServer(DebugHandler(Debug{Registry: reg}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams := parsePromStrict(t, string(body))

	c, ok := fams["strict_deadletters"]
	if !ok || c.kind != "counter" || c.help != "strict.deadletters" {
		t.Fatalf("counter family wrong: %+v", c)
	}
	if len(c.samples) != 1 || c.samples[0].value != 5 {
		t.Fatalf("counter samples wrong: %+v", c.samples)
	}
	if g := fams["strict_links"]; g == nil || g.kind != "gauge" || g.samples[0].value != 2 {
		t.Fatalf("gauge family wrong: %+v", g)
	}
	hist, ok := fams["strict_wait_ns"]
	if !ok || hist.kind != "histogram" {
		t.Fatalf("histogram family missing: %v", fams)
	}
	var prev float64
	var sawInf, sawSum, sawCount bool
	for _, s := range hist.samples {
		switch s.name {
		case "strict_wait_ns_bucket":
			le, ok := s.labels["le"]
			if !ok {
				t.Fatalf("bucket sample without le: %+v", s)
			}
			if le == "+Inf" {
				sawInf = true
				if s.value != 3 {
					t.Fatalf("+Inf bucket = %v, want 3", s.value)
				}
			} else if _, err := strconv.ParseFloat(le, 64); err != nil {
				t.Fatalf("unparseable le %q", le)
			}
			if s.value < prev {
				t.Fatalf("buckets not cumulative at le=%s", le)
			}
			prev = s.value
		case "strict_wait_ns_sum":
			sawSum = true
		case "strict_wait_ns_count":
			sawCount = true
			if s.value != 3 {
				t.Fatalf("count = %v, want 3", s.value)
			}
		default:
			t.Fatalf("unexpected histogram sample %q", s.name)
		}
	}
	if !sawInf || !sawSum || !sawCount {
		t.Fatalf("histogram family incomplete: inf=%v sum=%v count=%v", sawInf, sawSum, sawCount)
	}
}
