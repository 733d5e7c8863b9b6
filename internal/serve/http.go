package serve

// The HTTP/JSON boundary: one mutation/query endpoint, an operation-DAG
// endpoint, plus metrics and a verification keys dump. Errors map onto
// status codes the way a load balancer expects: 400 for malformed
// requests (don't retry), 413 for oversize bodies, 429 for shed load,
// 503 for draining.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// MaxBodyBytes caps a POST /op or /dag body. The decoder stops reading
// at the cap, so an oversize request costs at most this much memory
// and gets ErrBodyTooLarge (413).
const MaxBodyBytes = 1 << 20

// ErrBodyTooLarge marks a request body over MaxBodyBytes.
var ErrBodyTooLarge = errors.New("serve: request body too large")

// OpRequest is the JSON body of POST /op.
type OpRequest struct {
	// Op is one of union, insert, difference, intersect, contains, len.
	Op string `json:"op"`
	// Keys is the key batch for mutations.
	Keys []int `json:"keys,omitempty"`
	// Key is the probe for contains.
	Key int `json:"key,omitempty"`
}

// OpResponse is the JSON body of a successful POST /op.
type OpResponse struct {
	// Versions is the per-shard version cut the operation produced
	// (mutations: 0 = shard untouched) or observed (len).
	Versions Cut `json:"versions,omitempty"`
	// Version is the owning shard's version observed by op=contains.
	Version uint64 `json:"version,omitempty"`
	// Contains is set for op=contains.
	Contains *bool `json:"contains,omitempty"`
	// Len is set for op=len.
	Len *int `json:"len,omitempty"`
}

// DAGResponse is the JSON body of a successful POST /dag.
type DAGResponse struct {
	// Versions is the consistent per-shard cut every set leaf observed.
	Versions Cut `json:"versions"`
	// Count is the result set's cardinality (every want kind).
	Count int `json:"count"`
	// Keys is the result set's sorted contents (want=keys only).
	Keys []int `json:"keys,omitempty"`
}

type errResponse struct {
	Error string `json:"error"`
}

// Handler returns the server's HTTP interface:
//
//	POST /op      {"op":"union","keys":[1,2]} → {"versions":[3,1]}
//	              {"op":"contains","key":1}   → {"version":3,"contains":true}
//	              {"op":"len"}                → {"versions":[3,1],"len":2}
//	POST /dag     {"nodes":[{"ref":"set"},{"keys":[1,2]},
//	               {"op":"difference","args":[0,1]}]}
//	                                          → {"versions":[3,1],"count":7}
//	GET  /metrics → Metrics JSON
//	GET  /keys    → {"versions":[3,1],"keys":[1,2]}
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /op", s.handleOp)
	mux.HandleFunc("POST /dag", s.handleDAG)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /keys", s.handleKeys)
	return mux
}

// decodeBody decodes a JSON request body of at most MaxBodyBytes into
// v. Its error wraps ErrBodyTooLarge or ErrBadRequest.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &tooLarge):
		return fmt.Errorf("%w: limit is %d bytes", ErrBodyTooLarge, MaxBodyBytes)
	default:
		return fmt.Errorf("%w: bad request body: %v", ErrBadRequest, err)
	}
}

func (s *Server) handleOp(w http.ResponseWriter, r *http.Request) {
	var req OpRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeJSON(w, statusFor(err), errResponse{Error: err.Error()})
		return
	}
	var resp OpResponse
	var err error
	switch req.Op {
	case "union", "insert", "difference", "intersect":
		resp.Versions, err = s.Apply(Op(req.Op), req.Keys)
	case "contains":
		var ok bool
		ok, resp.Version, err = s.Contains(req.Key)
		resp.Contains = &ok
	case "len":
		var n int
		n, resp.Versions, err = s.Len()
		resp.Len = &n
	default:
		writeJSON(w, http.StatusBadRequest, errResponse{Error: "unknown op: " + req.Op})
		return
	}
	if err != nil {
		writeJSON(w, statusFor(err), errResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDAG(w http.ResponseWriter, r *http.Request) {
	var req DAGRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeJSON(w, statusFor(err), errResponse{Error: err.Error()})
		return
	}
	res, err := s.EvalDAG(req)
	if err != nil {
		writeJSON(w, statusFor(err), errResponse{Error: err.Error()})
		return
	}
	resp := DAGResponse{Versions: res.Cut, Count: res.Count, Keys: res.Keys}
	if req.Want == DAGWantKeys && resp.Keys == nil {
		resp.Keys = []int{}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleKeys(w http.ResponseWriter, _ *http.Request) {
	keys, v, err := s.Keys()
	if err != nil {
		writeJSON(w, statusFor(err), errResponse{Error: err.Error()})
		return
	}
	if keys == nil {
		keys = []int{}
	}
	writeJSON(w, http.StatusOK, struct {
		Versions Cut   `json:"versions"`
		Keys     []int `json:"keys"`
	}{v, keys})
}

// statusFor maps serving errors to HTTP codes: malformed requests are
// 400 (client bug, don't retry), oversize bodies 413, shed load is 429
// (retry later), draining is 503 (this instance is going away), and so
// is a shard whose log failed (it takes no writes until restart).
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrBodyTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
