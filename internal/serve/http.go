package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"encag"
)

// Server is the host's HTTP surface:
//
//	/metrics        merged Prometheus exposition (manager families plus
//	                every resident tenant session, tenant-labelled)
//	/debug/vars     expvar JSON with the host rollup under "encag_serve"
//	/debug/pprof/*  the standard profiling endpoints
//	/v1/step        run one collective for a tenant (JSON response)
//	/v1/tenants     the host Snapshot as JSON
//
// One server per Manager; Close tears it down but not the Manager.
type Server struct {
	m    *Manager
	addr string
	srv  *http.Server
	ln   net.Listener
}

// NewServer binds addr (empty selects an ephemeral loopback port) and
// starts serving the host's endpoints.
func NewServer(m *Manager, addr string) (*Server, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.WriteMetrics(w)
	})
	// The rollup is rendered per request rather than expvar.Publish'ed:
	// expvar has no unpublish, so a published Manager would outlive
	// its Close (and a second one would panic on the duplicate name).
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\n")
		expvar.Do(func(kv expvar.KeyValue) {
			fmt.Fprintf(w, "%q: %s,\n", kv.Key, kv.Value.String())
		})
		enc, err := json.Marshal(m.Snapshot())
		if err != nil {
			enc = []byte("{}")
		}
		fmt.Fprintf(w, "\"encag_serve\": %s\n}\n", enc)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/v1/step", func(w http.ResponseWriter, r *http.Request) {
		handleStep(m, w, r)
	})
	mux.HandleFunc("/v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		json.NewEncoder(w).Encode(m.Snapshot())
	})
	s := &Server{
		m:    m,
		addr: ln.Addr().String(),
		srv:  &http.Server{Handler: mux},
		ln:   ln,
	}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.addr }

// Close shuts the HTTP server down, waiting briefly for in-flight
// requests; the Manager stays up.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// stepResponse is /v1/step's JSON answer, for success and failure both.
type stepResponse struct {
	Tenant    string `json:"tenant"`
	Op        string `json:"op"`
	Alg       string `json:"alg,omitempty"`
	Size      int64  `json:"size,omitempty"`
	OK        bool   `json:"ok"`
	Rejected  bool   `json:"rejected,omitempty"`
	Reason    string `json:"reason,omitempty"`
	Error     string `json:"error,omitempty"`
	ElapsedNS int64  `json:"elapsed_ns,omitempty"`
}

// errInsecureStep fails a step in which plaintext crossed nodes: the
// host answers 500 and counts it as the tenant's failure.
var errInsecureStep = errors.New("step sent plaintext across nodes")

// maxStepSize bounds /v1/step's size parameter. A step allocates a
// payload of that size for every rank, and the runtime's out-of-memory
// error is fatal, so an unbounded size would let one request kill
// every tenant on the host. 16 MiB is well under wire.MaxChunk, the
// largest chunk the TCP codec accepts.
const maxStepSize = 16 << 20

// handleStep runs one collective described by query parameters:
//
//	tenant     required id of a registered tenant (404 otherwise)
//	op         allgather (default) | allreduce
//	alg        encrypted algorithm name or auto for allgather (default
//	           o-ring); a plaintext algorithm answers 400
//	size       per-rank payload bytes (default 4096, at most maxStepSize)
//	faultseed  nonzero arms a transient fault plan with that seed, on a
//	           host that allows it (Config.Chaos); elsewhere 403
//
// Admission rejections answer 429 with the structured reason; other
// step failures, a step that was not SecurityOK among them, answer 500;
// both carry the JSON body.
func handleStep(m *Manager, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	resp := stepResponse{
		Tenant: q.Get("tenant"),
		Op:     q.Get("op"),
		Alg:    q.Get("alg"),
	}
	if resp.Tenant == "" {
		httpJSON(w, http.StatusBadRequest, stepResponse{Error: "missing tenant parameter"})
		return
	}
	// Only the host registers tenants: a request's name opens nothing.
	spec, known := tenantSpec(m, resp.Tenant)
	if !known {
		httpJSON(w, http.StatusNotFound, stepResponse{Tenant: resp.Tenant, Error: "unknown tenant"})
		return
	}
	if resp.Op == "" {
		resp.Op = "allgather"
	}
	if resp.Alg == "" {
		resp.Alg = string(encag.AlgORing)
	}
	resp.Size = 4096
	if v := q.Get("size"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 || n > maxStepSize {
			httpJSON(w, http.StatusBadRequest, stepResponse{Tenant: resp.Tenant, Error: "bad size parameter"})
			return
		}
		resp.Size = n
	}
	var opts []encag.Option
	if v := q.Get("faultseed"); v != "" && v != "0" {
		if !m.cfg.Chaos {
			httpJSON(w, http.StatusForbidden, stepResponse{Tenant: resp.Tenant,
				Error: "fault injection is off on this host (serve -chaos turns it on)"})
			return
		}
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			httpJSON(w, http.StatusBadRequest, stepResponse{Tenant: resp.Tenant, Error: "bad faultseed parameter"})
			return
		}
		opts = append(opts, encag.WithFaultPlan(encag.TransientFaultPlan(seed, spec.Procs, 4)))
	}
	start := time.Now()
	var err error
	switch resp.Op {
	case "allgather":
		alg, perr := encag.ParseAlg(resp.Alg)
		if perr != nil {
			httpJSON(w, http.StatusBadRequest, stepResponse{Tenant: resp.Tenant, Error: perr.Error()})
			return
		}
		if alg != encag.AlgAuto && !alg.Encrypted() {
			httpJSON(w, http.StatusBadRequest, stepResponse{Tenant: resp.Tenant,
				Error: fmt.Sprintf("alg %s is not encrypted: /v1/step runs only encrypted algorithms and auto", alg)})
			return
		}
		err = m.Do(r.Context(), resp.Tenant, func(s *encag.Session) error {
			res, err := s.Run(r.Context(), alg, resp.Size, opts...)
			if err == nil && !res.SecurityOK {
				err = errInsecureStep
			}
			return err
		})
	case "allreduce":
		resp.Alg = ""
		data := allreducePayload(spec.Procs, int(resp.Size))
		err = m.Do(r.Context(), resp.Tenant, func(s *encag.Session) error {
			res, err := s.Allreduce(r.Context(), data, encag.XORCombine, opts...)
			if err == nil && !res.SecurityOK {
				err = errInsecureStep
			}
			return err
		})
	default:
		httpJSON(w, http.StatusBadRequest, stepResponse{Tenant: resp.Tenant, Error: "bad op parameter (allgather|allreduce)"})
		return
	}
	resp.ElapsedNS = time.Since(start).Nanoseconds()
	if err != nil {
		var rej *RejectionError
		if errors.As(err, &rej) {
			resp.Rejected, resp.Reason = true, rej.Reason
			httpJSON(w, http.StatusTooManyRequests, resp)
			return
		}
		resp.Error = err.Error()
		httpJSON(w, http.StatusInternalServerError, resp)
		return
	}
	resp.OK = true
	httpJSON(w, http.StatusOK, resp)
}

// tenantSpec resolves the layout a registered tenant's next session
// would use; known is false for a tenant the host never registered.
func tenantSpec(m *Manager, id string) (spec encag.Spec, known bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if tn := m.tenants[id]; tn != nil {
		return tn.spec, true
	}
	return encag.Spec{}, false
}

// allreducePayload builds deterministic contributions for procs ranks.
func allreducePayload(procs, size int) [][]byte {
	data := make([][]byte, procs)
	for r := range data {
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = byte(r*131 + i)
		}
		data[r] = buf
	}
	return data
}

func httpJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
