package encag

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"encag/internal/metrics"
)

// debugServer is the session's introspection HTTP server: /metrics in
// Prometheus text format, /debug/vars as expvar-style JSON with the
// session registry under "encag", and the standard net/http/pprof
// endpoints. One server per session, torn down with it.
type debugServer struct {
	addr string
	srv  *http.Server
	ln   net.Listener
}

// startDebugServer binds addr (empty selects an ephemeral loopback
// port) and starts serving the registry's exposition endpoints.
func startDebugServer(addr string, reg *metrics.Registry) (*debugServer, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("encag: debug server listen: %w", err)
	}
	mux := metrics.DebugMux(reg.WritePrometheus, "encag", func() any { return reg.Snapshot() })
	d := &debugServer{
		addr: ln.Addr().String(),
		srv:  &http.Server{Handler: mux},
		ln:   ln,
	}
	go d.srv.Serve(ln)
	return d, nil
}

// close shuts the server down, waiting briefly for in-flight scrapes.
func (d *debugServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
}
