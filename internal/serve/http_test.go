package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
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

// TestCacheHitReplyIsEncodedOnce: a cache hit is answered from bytes encoded
// at the job's first hit. They are exactly what rendering the reply afresh
// through writeJSON gives; they are dropped when the job is evicted; and after
// eviction and a re-run the hit carries the new job, not the old bytes.
func TestCacheHitReplyIsEncodedOnce(t *testing.T) {
	s, ts := httpServer(t, Config{Runner: func(req *Request) (*Outcome, error) {
		out, _ := okRunner(req)
		out.Metrics = json.RawMessage(`{"counters":{"a.b":1,"<&>":2}}`)
		return out, nil
	}, CacheCap: 1})
	post := func(spec string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type %q", ct)
		}
		return resp.StatusCode, raw
	}
	// runToDone submits spec as a miss and returns the finished job.
	runToDone := func(spec string) *Job {
		t.Helper()
		code, raw := post(spec)
		var reply struct {
			Disposition string
			Job         struct{ ID string }
		}
		if err := json.Unmarshal(raw, &reply); err != nil || code != http.StatusAccepted || reply.Disposition != DispAccepted {
			t.Fatalf("submit %s: %d %s (%v)", spec, code, raw, err)
		}
		j, _ := s.Job(reply.Job.ID)
		waitTerminal(t, j)
		return j
	}
	fresh := func(j *Job) []byte {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, submitResponse{Disposition: DispCacheHit, Job: s.View(j, true)})
		return rec.Body.Bytes()
	}

	memo := func(j *Job) []byte {
		s.mu.Lock()
		defer s.mu.Unlock()
		return j.hitReply
	}

	first := runToDone(`{"seed": 1}`)
	if memo(first) != nil {
		t.Fatal("a reply was encoded before any hit")
	}
	for i := 0; i < 3; i++ {
		code, raw := post(`{"seed": 1}`)
		if code != http.StatusOK || !bytes.Equal(raw, fresh(first)) {
			t.Fatalf("hit %d: status %d, body\n%s\nwant\n%s", i, code, raw, fresh(first))
		}
	}
	if b := memo(first); !bytes.Contains(b, []byte(`"id":"`+first.ID+`"`)) || !bytes.Contains(b, []byte(`\u003c\u0026\u003e`)) {
		t.Fatalf("memoised reply: %s", b)
	}

	// Another spec evicts the first job (CacheCap 1) and its bytes with it.
	runToDone(`{"seed": 2}`)
	if memo(first) != nil {
		t.Error("an evicted job kept its encoded reply")
	}
	// The first spec runs again as a new job; hits are answered with that one.
	again := runToDone(`{"seed": 1}`)
	if again.ID == first.ID {
		t.Fatalf("re-run after eviction reused job %s", first.ID)
	}
	code, raw := post(`{"seed": 1}`)
	if code != http.StatusOK || !bytes.Equal(raw, fresh(again)) || !bytes.Contains(raw, []byte(`"id":"`+again.ID+`"`)) {
		t.Errorf("hit after eviction and re-run: status %d, body\n%s\nwant job %s:\n%s", code, raw, again.ID, fresh(again))
	}
}

// TestRepliesAreCompactJSON: every handler's body is one line of compact JSON
// (valid, and equal to its own json.Compact plus the trailing newline), and
// what it carries decodes to what the same value rendered indented, as
// replies once were, decodes to. Each view is compared while the job cannot
// move: the one worker is held on a gate until the terminal cases.
func TestRepliesAreCompactJSON(t *testing.T) {
	gate := make(chan struct{})
	held := gateRunner(gate)
	s, ts := httpServer(t, Config{Workers: 1, QueueDepth: 2, Runner: func(req *Request) (*Outcome, error) {
		if req.Spec.Seed == 99 {
			return held(req)
		}
		out, _ := okRunner(req)
		out.Metrics = json.RawMessage("{\n  \"counters\": {\"a.b\": 1, \"<&>\": 2}\n}\n")
		return out, nil
	}})
	// reply makes one request and checks its status and that its body is
	// compact JSON.
	reply := func(name string, wantCode int, method, path, body string) []byte {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
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
		var c bytes.Buffer
		if resp.StatusCode != wantCode || !json.Valid(raw) || json.Compact(&c, raw) != nil || !bytes.Equal(raw, append(c.Bytes(), '\n')) {
			t.Errorf("%s: status %d (want %d), body is not one line of compact JSON:\n%s", name, resp.StatusCode, wantCode, raw)
		}
		return raw
	}
	submit := func(name string, wantCode int, spec string) (*Job, []byte) {
		t.Helper()
		raw := reply(name, wantCode, "POST", "/jobs", spec)
		var r submitResponse
		if err := json.Unmarshal(raw, &r); err != nil || r.Job == nil {
			t.Fatalf("%s: %v\n%s", name, err, raw)
		}
		j, _ := s.Job(r.Job.ID)
		return j, raw
	}

	blocker, _ := submit("submit blocker", http.StatusAccepted, `{"seed": 99}`)
	for deadline := time.Now().Add(5 * time.Second); s.View(blocker, false).State != StateRunning; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the blocking job never started")
		}
	}
	j1, raw := submit("202 submit", http.StatusAccepted, `{"seed": 1}`)
	sameAsIndented(t, "202 submit", raw, submitResponse{Disposition: DispAccepted, Job: s.View(j1, false)})
	_, raw = submit("joined", http.StatusOK, `{"seed": 1}`)
	sameAsIndented(t, "joined", raw, submitResponse{Disposition: DispJoined, Job: s.View(j1, false)})
	raw = reply("status", http.StatusOK, "GET", "/jobs/"+j1.ID, "")
	sameAsIndented(t, "status", raw, s.View(j1, false))
	raw = reply("202 result", http.StatusAccepted, "GET", "/jobs/"+j1.ID+"/result?wait=1ms", "")
	sameAsIndented(t, "202 result", raw, s.View(j1, true))
	j2, _ := submit("second 202 submit", http.StatusAccepted, `{"seed": 2}`)
	raw = reply("cancel", http.StatusOK, "POST", "/jobs/"+j2.ID+"/cancel", "")
	sameAsIndented(t, "cancel", raw, s.View(j2, false))
	raw = reply("429", http.StatusTooManyRequests, "POST", "/jobs", `{"seed": 3}`)
	sameAsIndented(t, "429", raw, map[string]string{"error": ErrQueueFull.Error()})
	raw = reply("list", http.StatusOK, "GET", "/jobs", "")
	sameAsIndented(t, "list", raw, s.Jobs())

	close(gate)
	for _, j := range []*Job{blocker, j1, j2} {
		waitTerminal(t, j)
	}
	raw = reply("result", http.StatusOK, "GET", "/jobs/"+j1.ID+"/result", "")
	sameAsIndented(t, "result", raw, s.View(j1, true))
	for i := 0; i < 2; i++ { // the first hit encodes the reply, the second replays it
		_, raw = submit("cache hit", http.StatusOK, `{"seed": 1}`)
		sameAsIndented(t, "cache hit", raw, submitResponse{Disposition: DispCacheHit, Job: s.View(j1, true)})
	}
	raw = reply("409 cancel", http.StatusConflict, "POST", "/jobs/"+j1.ID+"/cancel", "")
	sameAsIndented(t, "409 cancel", raw, s.View(j1, false))
	_, invalid := (&Spec{Kind: "nope"}).Normalize()
	raw = reply("400", http.StatusBadRequest, "POST", "/jobs", `{"kind": "nope"}`)
	sameAsIndented(t, "400", raw, map[string]string{"error": invalid.Error()})
	reply("400 malformed", http.StatusBadRequest, "POST", "/jobs", `{not json`)
	raw = reply("404", http.StatusNotFound, "GET", "/jobs/j-999999", "")
	sameAsIndented(t, "404", raw, map[string]string{"error": "serve: no such job"})
	raw = reply("healthz", http.StatusOK, "GET", "/healthz", "")
	sameAsIndented(t, "healthz", raw, map[string]string{"status": "ok"})
	raw = reply("readyz", http.StatusOK, "GET", "/readyz", "")
	sameAsIndented(t, "readyz", raw, map[string]string{"status": "ready"})
	raw = reply("metrics", http.StatusOK, "GET", "/metrics", "")
	var dump bytes.Buffer
	_ = s.Metrics().WriteJSON(&dump)
	if !bytes.Equal(raw, dump.Bytes()) {
		t.Errorf("/metrics is not the registry dump:\n%s\nwant\n%s", raw, dump.Bytes())
	}
}

// sameAsIndented decodes body, and want rendered the way replies were before
// they became compact, into T, and requires the two to be equal. An outcome's
// Metrics is raw JSON that keeps the whitespace it was rendered with, so it
// is compared compacted.
func sameAsIndented[T any](t *testing.T, name string, body []byte, want T) {
	t.Helper()
	var indented bytes.Buffer
	enc := json.NewEncoder(&indented)
	enc.SetIndent("", "  ")
	if err := enc.Encode(want); err != nil {
		t.Fatal(err)
	}
	var got, old T
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("%s: %v\n%s", name, err, body)
	}
	if err := json.Unmarshal(indented.Bytes(), &old); err != nil {
		t.Fatal(err)
	}
	for _, v := range append(jobViews(&got), jobViews(&old)...) {
		if v != nil && v.Outcome != nil && v.Outcome.Metrics != nil {
			var c bytes.Buffer
			if err := json.Compact(&c, v.Outcome.Metrics); err != nil {
				t.Fatal(err)
			}
			v.Outcome.Metrics = c.Bytes()
		}
	}
	if !reflect.DeepEqual(got, old) {
		t.Errorf("%s: the compact reply decodes differently from the indented one:\n%s\nindented:\n%s", name, body, indented.Bytes())
	}
}

// jobViews returns the job views a decoded reply holds.
func jobViews(v any) []*JobView {
	switch v := v.(type) {
	case *submitResponse:
		return []*JobView{v.Job}
	case **JobView:
		return []*JobView{*v}
	case *[]*JobView:
		return *v
	}
	return nil
}
