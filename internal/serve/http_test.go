package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// httpServer spins up the full HTTP surface over a stub-backed Server.
func httpServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(Handler(s))
	t.Cleanup(func() {
		ts.Close()
		_ = s.Shutdown(10 * time.Second)
	})
	return s, ts
}

func doJSON(t *testing.T, method, url string, body string) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if len(raw) > 0 && raw[0] == '{' {
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("bad JSON from %s %s: %v\n%s", method, url, err, raw)
		}
	}
	return resp.StatusCode, m
}

func TestHTTPHealthAndReady(t *testing.T) {
	s, ts := httpServer(t, Config{Runner: okRunner})
	if code, m := doJSON(t, "GET", ts.URL+"/healthz", ""); code != 200 || m["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, m)
	}
	if code, m := doJSON(t, "GET", ts.URL+"/readyz", ""); code != 200 || m["status"] != "ready" {
		t.Fatalf("readyz: %d %v", code, m)
	}
	if err := s.Shutdown(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if code, m := doJSON(t, "GET", ts.URL+"/readyz", ""); code != 503 || m["status"] != "draining" {
		t.Fatalf("draining readyz: %d %v", code, m)
	}
	// Liveness stays green while draining: the process still serves.
	if code, _ := doJSON(t, "GET", ts.URL+"/healthz", ""); code != 200 {
		t.Fatalf("healthz while draining: %d", code)
	}
}

func TestHTTPSubmitPollResult(t *testing.T) {
	_, ts := httpServer(t, Config{Runner: okRunner})

	code, m := doJSON(t, "POST", ts.URL+"/jobs", `{"seed": 42}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, m)
	}
	if m["disposition"] != DispAccepted {
		t.Fatalf("disposition = %v", m["disposition"])
	}
	job := m["job"].(map[string]any)
	id := job["id"].(string)

	code, m = doJSON(t, "GET", ts.URL+"/jobs/"+id+"/result?wait=10s", "")
	if code != http.StatusOK || m["state"] != string(StateDone) {
		t.Fatalf("result: %d %v", code, m)
	}
	out := m["outcome"].(map[string]any)
	if out["goodput_gbps"].(float64) != 42 {
		t.Fatalf("outcome: %v", out)
	}

	// Identical spec now comes back as a 200 cache hit with the result inline.
	code, m = doJSON(t, "POST", ts.URL+"/jobs", `{"seed": 42}`)
	if code != http.StatusOK || m["disposition"] != DispCacheHit {
		t.Fatalf("cache-hit submit: %d %v", code, m)
	}
	if m["job"].(map[string]any)["outcome"] == nil {
		t.Fatal("cache-hit reply did not inline the outcome")
	}

	// Status endpoint and listing both know the job.
	if code, m = doJSON(t, "GET", ts.URL+"/jobs/"+id, ""); code != 200 || m["state"] != string(StateDone) {
		t.Fatalf("status: %d %v", code, m)
	}
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var list []map[string]any
	if err := json.Unmarshal(raw, &list); err != nil || len(list) != 1 {
		t.Fatalf("list: err=%v n=%d", err, len(list))
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := httpServer(t, Config{Runner: okRunner})
	for _, body := range []string{
		`{not json`,
		`{"kind": "nope"}`,
		`{"unknown_field": 1}`,
		`{"kind": "workload", "fault": "nloss=0.1"}`,
		`{"kind": "workload", "fault_seed": 2}`,
		`{"kind": "workload", "invariants": true}`,
	} {
		if code, _ := doJSON(t, "POST", ts.URL+"/jobs", body); code != http.StatusBadRequest {
			t.Errorf("submit %q: code %d, want 400", body, code)
		}
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/jobs/j-999999", ""); code != http.StatusNotFound {
		t.Fatalf("unknown job status: %d, want 404", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/jobs/j-999999/cancel", ""); code != http.StatusNotFound {
		t.Fatalf("unknown job cancel: %d, want 404", code)
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	s, ts := httpServer(t, Config{Workers: 1, QueueDepth: 1, Runner: gateRunner(gate)})

	// Fill the worker, then the queue slot; nudge until the first job is
	// actually running so the buffer slot is free for the second.
	if code, _ := doJSON(t, "POST", ts.URL+"/jobs", `{"seed": 1}`); code != 202 {
		t.Fatalf("first submit: %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.Jobs()) == 0 || s.Jobs()[len(s.Jobs())-1].State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/jobs", `{"seed": 2}`); code != 202 {
		t.Fatalf("second submit: %d", code)
	}
	code, m := doJSON(t, "POST", ts.URL+"/jobs", `{"seed": 3}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: %d %v, want 429", code, m)
	}
}

func TestHTTPCancelAndConflict(t *testing.T) {
	_, ts := httpServer(t, Config{Workers: 1, Runner: slowRunner})
	code, m := doJSON(t, "POST", ts.URL+"/jobs", `{"seed": 4}`)
	if code != 202 {
		t.Fatalf("submit: %d", code)
	}
	id := m["job"].(map[string]any)["id"].(string)
	if code, m = doJSON(t, "POST", ts.URL+"/jobs/"+id+"/cancel", ""); code != 200 {
		t.Fatalf("cancel: %d %v", code, m)
	}
	if code, m = doJSON(t, "GET", ts.URL+"/jobs/"+id+"/result?wait=10s", ""); code != 200 || m["state"] != string(StateCancelled) {
		t.Fatalf("cancelled result: %d %v", code, m)
	}
	if code, _ = doJSON(t, "POST", ts.URL+"/jobs/"+id+"/cancel", ""); code != http.StatusConflict {
		t.Fatalf("re-cancel of terminal job: %d, want 409", code)
	}
}

func TestHTTPDrainingSubmit503(t *testing.T) {
	s, ts := httpServer(t, Config{Runner: okRunner})
	if err := s.Shutdown(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/jobs", `{"seed": 1}`); code != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: %d, want 503", code)
	}
}

func TestHTTPMetricsEndpoint(t *testing.T) {
	_, ts := httpServer(t, Config{Runner: okRunner})
	code, m := doJSON(t, "POST", ts.URL+"/jobs", `{"seed": 8}`)
	if code != 202 {
		t.Fatalf("submit: %d", code)
	}
	id := m["job"].(map[string]any)["id"].(string)
	if code, _ := doJSON(t, "GET", ts.URL+"/jobs/"+id+"/result?wait=10s", ""); code != 200 {
		t.Fatalf("result: %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var dump struct {
		Counters   map[string]int64          `json:"counters"`
		Histograms map[string]map[string]any `json:"histograms"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(raw), &dump); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, raw)
	}
	if dump.Counters["serve.submitted"] != 1 || dump.Counters["serve.jobs_done"] != 1 {
		t.Fatalf("counters: %v", dump.Counters)
	}
	for _, h := range []string{"serve.queue_wait_ns", "serve.run_ns"} {
		if _, ok := dump.Histograms[h]; !ok {
			t.Fatalf("histogram %s missing from /metrics:\n%s", h, raw)
		}
	}
}

// TestHTTPResultWaitTimesOut202: a wait shorter than the job returns 202
// with the in-progress view rather than blocking forever.
func TestHTTPResultWaitTimesOut202(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	_, ts := httpServer(t, Config{Workers: 1, Runner: gateRunner(gate)})
	code, m := doJSON(t, "POST", ts.URL+"/jobs", `{"seed": 6}`)
	if code != 202 {
		t.Fatalf("submit: %d", code)
	}
	id := m["job"].(map[string]any)["id"].(string)
	code, m = doJSON(t, "GET", fmt.Sprintf("%s/jobs/%s/result?wait=50ms", ts.URL, id), "")
	if code != http.StatusAccepted || terminalState(m["state"]) {
		t.Fatalf("early result poll: %d %v, want 202 + non-terminal", code, m)
	}
}

func terminalState(v any) bool {
	s, _ := v.(string)
	return terminal(State(s))
}
