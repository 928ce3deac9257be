package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

func testRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	reg.Counter("actors.deadletters").Add(3)
	reg.Gauge("actors.live", func() int64 { return 7 })
	h := reg.Histogram("actors.handler_ns")
	h.Observe(500 * time.Nanosecond)
	h.Observe(3 * time.Microsecond)
	return reg
}

// promLine accepts the two sample shapes WritePrometheus emits: bare
// "name value" and histogram buckets "name{le=\"...\"} value".
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? -?[0-9.+Ife]+$`)

func TestMetricsEndpointIsParseablePrometheus(t *testing.T) {
	srv := httptest.NewServer(DebugHandler(Debug{Registry: testRegistry()}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q is not the Prometheus text exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, found := strings.Cut(rest, " ")
			if !found || (kind != "counter" && kind != "gauge" && kind != "histogram") {
				t.Fatalf("bad TYPE line %q", line)
			}
			typed[name] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("unparseable sample line %q", line)
		}
		// Every sample must belong to a declared family (histograms add
		// _bucket/_sum/_count to their family name).
		name := line[:strings.IndexAny(line, "{ ")]
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base = strings.TrimSuffix(base, suf)
		}
		if !typed[name] && !typed[base] {
			t.Fatalf("sample %q precedes its # TYPE declaration", name)
		}
	}
	for _, want := range []string{"actors_deadletters 3", "actors_live 7", "actors_handler_ns_count 2"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("output missing %q:\n%s", want, body)
		}
	}
}

func TestFlightEndpointServesChromeTrace(t *testing.T) {
	rec := trace.NewFlightRecorder(16)
	rec.Record("worker-1", trace.KindAcquire, "mutex", "")
	rec.Record("worker-2", trace.KindFault, "deadlock", "cycle suspected")
	srv := httptest.NewServer(DebugHandler(Debug{Recorder: rec}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("flight output is not Chrome trace JSON: %v", err)
	}
	var faults int
	for _, e := range doc.TraceEvents {
		if e.Phase == "i" && strings.HasPrefix(e.Name, "fault") {
			faults++
		}
	}
	if faults != 1 {
		t.Fatalf("want the recorded fault in the trace, got %d fault events", faults)
	}

	text, err := http.Get(srv.URL + "/debug/flight?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer text.Body.Close()
	b, _ := io.ReadAll(text.Body)
	if !strings.Contains(string(b), "deadlock") {
		t.Fatalf("text dump missing recorded event:\n%s", b)
	}
}

func TestUnwiredEndpointsAnswer503(t *testing.T) {
	srv := httptest.NewServer(DebugHandler(Debug{}))
	defer srv.Close()
	for _, path := range []string{"/debug/metrics", "/debug/flight", "/debug/trace"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s status = %d, want 503", path, resp.StatusCode)
		}
	}
}

func TestServeBindsAndAnswers(t *testing.T) {
	srv, addr, err := ServeDebug("127.0.0.1:0", Debug{Registry: testRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}
