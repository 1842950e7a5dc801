package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"time"
)

// Handler builds the service's HTTP API on a standard mux:
//
//	POST /jobs              submit a Spec; 202 accepted / 200 cache hit or
//	                        joined / 400 invalid / 429 queue full / 503 draining
//	GET  /jobs              list all jobs, newest first
//	GET  /jobs/{id}         job status
//	GET  /jobs/{id}/result  job result; ?wait=DUR blocks until terminal
//	POST /jobs/{id}/cancel  request cooperative cancellation
//	GET  /healthz           liveness (always 200 while the process serves)
//	GET  /readyz            readiness (503 once draining)
//	GET  /metrics           the serve.* registry as JSON
func Handler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = s.Metrics().WriteJSON(w)
	})
	return mux
}

// submitResponse is the POST /jobs reply envelope.
type submitResponse struct {
	Disposition string   `json:"disposition"`
	Job         *JobView `json:"job"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	job, disp, err := s.Submit(&spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeErr(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// Cache hits and joins refer to existing work: 200. Fresh jobs: 202.
	if disp == DispCacheHit {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(s.hitReply(job))
		return
	}
	code := http.StatusAccepted
	if disp != DispAccepted {
		code = http.StatusOK
	}
	writeJSON(w, code, submitResponse{Disposition: disp, Job: s.View(job, false)})
}

// hitReply returns the body of the POST /jobs reply for a cache hit on j, the
// bytes writeJSON would produce, encoded once per cached job: a hit returns a
// terminal job, whose view can no longer change, and rendering it (reflection
// over the view, re-validating the metrics dump) is most of what a hit
// costs. The bytes go with the job when it is evicted.
func (s *Server) hitReply(j *Job) []byte {
	s.mu.Lock()
	b := j.hitReply
	s.mu.Unlock()
	if b != nil {
		return b
	}
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(submitResponse{Disposition: DispCacheHit, Job: s.View(j, true)})
	s.mu.Lock()
	if s.cache[j.Key] == j { // not evicted since Submit found it
		j.hitReply = buf.Bytes()
	}
	s.mu.Unlock()
	return buf.Bytes()
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("serve: no such job"))
		return
	}
	writeJSON(w, http.StatusOK, s.View(j, false))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("serve: no such job"))
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		select {
		case <-j.Done():
		case <-time.After(d):
		case <-r.Context().Done():
			return
		}
	}
	v := s.View(j, true)
	if !terminal(v.State) {
		// Not done yet: the status view with 202 tells the client to poll.
		writeJSON(w, http.StatusAccepted, v)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.Cancel(id) {
		j, _ := s.Job(id)
		writeJSON(w, http.StatusOK, s.View(j, false))
		return
	}
	if j, ok := s.Job(id); ok {
		// Already terminal: cancelling a finished job is a no-op conflict.
		writeJSON(w, http.StatusConflict, s.View(j, false))
		return
	}
	writeErr(w, http.StatusNotFound, errors.New("serve: no such job"))
}

// writeJSON is the one rendering every reply uses: compact JSON and a newline.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
