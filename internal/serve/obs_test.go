// Observability tests: the request-ID thread through header, envelope,
// job record, structured logs and run manifest; the /metrics Prometheus
// exposition and its pinned name set; panic recovery; and the
// /debug/requests ring. End-to-end tests run the real engine on the
// tiny multiprog scale, like http_test.go.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"sccsim"
	"sccsim/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// syncBuf is a mutex-guarded buffer so tests can read log output while
// server goroutines may still be writing.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestIDEndToEnd: one ID threads the whole request — response
// header, response envelope, job record, every structured log line, and
// the run manifest on disk.
func TestRequestIDEndToEnd(t *testing.T) {
	sccsim.ResetTraceCache()
	t.Cleanup(sccsim.ResetTraceCache)

	logs := &syncBuf{}
	dir := t.TempDir()
	s := New(Options{
		Workers:     2,
		Logger:      obs.NewJSONLogger(logs, 0), // info
		ManifestDir: dir,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	const reqID = "e2e-req-0123"
	req, _ := http.NewRequest("POST", ts.URL+"/v1/sweep", strings.NewReader(tinyBody(17, "")))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// 1. The caller-supplied ID is echoed in the response header.
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Errorf("X-Request-ID header = %q, want %q", got, reqID)
	}
	var env SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	// 2. ...and in the response envelope.
	if env.RequestID != reqID {
		t.Errorf("envelope request_id = %q, want %q", env.RequestID, reqID)
	}
	if env.Status != "done" || env.Grid == nil {
		t.Fatalf("sweep not done: status=%q grid=%v err=%q", env.Status, env.Grid != nil, env.Error)
	}

	// 3. The job record carries it, visible through the status route.
	sr, err := http.Get(ts.URL + "/v1/sweep/" + env.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.RequestID != reqID {
		t.Errorf("job status request_id = %q, want %q", st.RequestID, reqID)
	}

	// 4. The structured log lines are stamped with it: the request
	// shell's start/finish lines for the POST route and the job
	// lifecycle lines. The POST's finish line is written after the
	// response body — possibly after the status GET's own finish line —
	// so poll for that specific line, matched by route and ID.
	stamp := fmt.Sprintf("%q:%q", "request_id", reqID)
	route := fmt.Sprintf("%q:%q", "route", "POST /v1/sweep")
	waitFor(t, func() bool { return findLogLine(logs.String(), "request finish", route, stamp) != "" })
	out := logs.String()
	for _, msg := range []string{"request start", "request finish", "job start", "job done", "sweep start", "sweep done"} {
		want := []string{stamp}
		if strings.HasPrefix(msg, "request ") {
			want = append(want, route)
		}
		if findLogLine(out, msg, want...) == "" {
			t.Errorf("no %q log line with %s in:\n%s", msg, strings.Join(want, " and "), out)
		}
	}

	// 5. The run manifest on disk is stamped with it too.
	mb, err := os.ReadFile(filepath.Join(dir, env.ID+".json"))
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		t.Fatal(err)
	}
	if m.RequestID != reqID {
		t.Errorf("manifest request_id = %q, want %q", m.RequestID, reqID)
	}

	// Without a caller-supplied ID the server generates one, and the
	// header and envelope agree on it.
	r2 := postSweep(t, ts.URL, tinyBody(18, ""))
	defer r2.Body.Close()
	gen := r2.Header.Get("X-Request-ID")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(gen) {
		t.Errorf("generated X-Request-ID = %q, want 16 hex chars", gen)
	}
	var env2 SweepResponse
	if err := json.NewDecoder(r2.Body).Decode(&env2); err != nil {
		t.Fatal(err)
	}
	if env2.RequestID != gen {
		t.Errorf("envelope request_id = %q, header = %q", env2.RequestID, gen)
	}
}

// findLogLine returns the first JSON log line whose msg field matches
// and which contains every want substring.
func findLogLine(out, msg string, want ...string) string {
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, fmt.Sprintf(`"msg":%q`, msg)) {
			continue
		}
		ok := true
		for _, w := range want {
			ok = ok && strings.Contains(line, w)
		}
		if ok {
			return line
		}
	}
	return ""
}

// promSample matches one line of the Prometheus text exposition: a
// # TYPE line or a sample with an optional le label.
var promSample = regexp.MustCompile(
	`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$` +
		`|^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? -?[0-9eE.+]+$`)

// TestMetricsPrometheus: Accept: text/plain flips /metrics from the
// JSON snapshot to valid Prometheus text exposition.
func TestMetricsPrometheus(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Default stays JSON — existing scrapers keep working.
	dr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Body.Close()
	if ct := dr.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("default content type = %q, want application/json", ct)
	}
	var snap map[string]any
	if err := json.NewDecoder(dr.Body).Decode(&snap); err != nil {
		t.Fatalf("default /metrics is not a JSON object: %v", err)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	pr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Body.Close()
	if ct := pr.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Errorf("prometheus content type = %q, want %q", ct, obs.PrometheusContentType)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(pr.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if !promSample.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	// The runtime collector runs at scrape time, so go_* gauges are
	// present even on a fresh server.
	for _, want := range []string{"go_goroutines", "go_heap_alloc_bytes", "http_metrics_requests"} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %s:\n%s", want, body)
		}
	}
}

// TestMetricsNameSetGolden pins the full Prometheus family-name set a
// scripted traffic pattern produces — sweeps on both backends (so the
// crossval gauges fire), a point, a search (so the search.* pipeline
// counters fire), a client error, and every read-only route. New
// metrics must show up here deliberately, via -update.
func TestMetricsNameSetGolden(t *testing.T) {
	sccsim.ResetTraceCache()
	t.Cleanup(sccsim.ResetTraceCache)

	s := New(Options{Workers: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Exact then analytic sweep of the same experiment: the second is
	// the first's twin, publishing the crossval.multiprog.* gauges.
	r1 := postSweep(t, ts.URL, tinyBody(16, ""))
	r1.Body.Close()
	r2 := postSweep(t, ts.URL, tinyBody(16, `,"backend":"analytic"`))
	r2.Body.Close()
	pr, err := http.Post(ts.URL+"/v1/point", "application/json",
		strings.NewReader(`{"workload":"multiprog","scale_spec":{"multiprog_refs":6000,"seed":16},"procs_per_cluster":2}`))
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	// A search publishes the search.* pipeline counters.
	sr := postSearch(t, ts.URL, tinySearchBody(16, tinySearchSpace))
	sr.Body.Close()
	br := postSweep(t, ts.URL, `{"not":"a sweep"}`) // 400 -> status_4xx
	br.Body.Close()
	for _, path := range []string{"/healthz", "/debug/requests", "/v1/sweep/missing"} {
		gr, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		gr.Body.Close()
	}

	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	mr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mr.Body); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			names = append(names, rest) // "name kind", already sorted
		}
	}
	got := strings.Join(names, "\n") + "\n"

	golden := filepath.Join("testdata", "metrics_names.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("metric name set drifted from golden.\ngot:\n%s\nwant:\n%s\n(run with -update if the change is intentional)", got, want)
	}
}

// TestPanicRecovery: a panicking handler inside the request shell comes
// back as a metered 500 with the uniform error envelope, the panic
// counter and the 5xx status class both advance, and the stack is
// logged with the request ID.
func TestPanicRecovery(t *testing.T) {
	logs := &syncBuf{}
	s := New(Options{Logger: obs.NewJSONLogger(logs, 0)})
	boom := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	h := obs.InstrumentHandler(s.reg, "GET /boom", s.withRequest("GET /boom", boom))
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
		t.Errorf("500 body missing error envelope: %v %+v", err, eb)
	}
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Error("panicking request still needs an X-Request-ID")
	}
	if got := s.reg.Counter("serve.panics").Value(); got != 1 {
		t.Errorf("serve.panics = %d, want 1", got)
	}
	if got := s.reg.Counter("http.boom.status_5xx").Value(); got != 1 {
		t.Errorf("status_5xx = %d, want 1", got)
	}
	waitFor(t, func() bool { return strings.Contains(logs.String(), "handler panic") })
	line := findLogLine(logs.String(), "handler panic")
	if !strings.Contains(line, "kaboom") || !strings.Contains(line, "stack") {
		t.Errorf("panic line missing value or stack: %s", line)
	}
	if !strings.Contains(line, fmt.Sprintf("%q:%q", "request_id", id)) {
		t.Errorf("panic line missing request_id %q: %s", id, line)
	}
}

// TestDebugRequests: the ring serves recent requests newest first with
// their span breakdowns, and its size bounds retention.
func TestDebugRequests(t *testing.T) {
	s := New(Options{DebugRequests: 8})
	s.runJob = func(ctx context.Context, j *job) error { return nil }
	ts := httptest.NewServer(s)
	defer ts.Close()

	r := postSweep(t, ts.URL, asyncBody)
	r.Body.Close()
	for i := 0; i < 2; i++ {
		hr, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
	}
	dr, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Body.Close()
	var got DebugRequestsResponse
	if err := json.NewDecoder(dr.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Requests) != 3 {
		t.Fatalf("retained %d requests, want 3", len(got.Requests))
	}
	// Newest first: healthz, healthz, sweep. The /debug/requests call
	// itself is recorded after its response, so it is absent.
	if got.Requests[0].Route != "GET /healthz" || got.Requests[2].Route != "POST /v1/sweep" {
		t.Errorf("order: %q ... %q", got.Requests[0].Route, got.Requests[2].Route)
	}
	sweep := got.Requests[2]
	if sweep.ID == "" || sweep.Status != http.StatusAccepted || sweep.DurNS <= 0 {
		t.Errorf("sweep record incomplete: %+v", sweep)
	}
	spanNames := make(map[string]bool)
	for _, sp := range sweep.Spans {
		spanNames[sp.Name] = true
	}
	for _, want := range []string{"decode", "admit"} {
		if !spanNames[want] {
			t.Errorf("sweep record missing span %q, have %v", want, sweep.Spans)
		}
	}

	// A ring of 2 keeps only the newest 2.
	s2 := New(Options{DebugRequests: 2})
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	for i := 0; i < 5; i++ {
		hr, err := http.Get(ts2.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
	}
	if got := s2.reqs.Snapshot(); len(got) != 2 {
		t.Errorf("bounded ring retained %d, want 2", len(got))
	}
}
