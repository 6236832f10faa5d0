package load

import (
	"net"
	"testing"
	"time"

	"cpm"
	"cpm/internal/server"
)

// startServer brings up an in-process server on a loopback port.
func startServer(t *testing.T) string {
	t.Helper()
	mon := cpm.NewMonitor(cpm.Options{GridSize: 32})
	srv := server.New(mon, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		mon.Close()
	})
	return ln.Addr().String()
}

// TestLoopbackSmoke runs a short open-loop burst against an in-process
// server and checks every op type completed with plausible percentiles.
func TestLoopbackSmoke(t *testing.T) {
	addr := startServer(t)
	res, err := Run(Options{
		Addr:     addr,
		Conns:    2,
		Rate:     400,
		Duration: 1200 * time.Millisecond,
		Objects:  300,
		Queries:  10,
		Batch:    4,
		Seed:     7,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Errorf("load run recorded %d op errors", res.Errors)
	}
	counts := map[string]int64{
		"ingest":   res.Ingest.Count(),
		"tick":     res.Tick.Count(),
		"register": res.Register.Count(),
		"deliver":  res.Deliver.Count(),
	}
	for name, n := range counts {
		if n == 0 {
			t.Errorf("no %s operations completed", name)
		}
	}

	for _, op := range res.Ops() {
		h := op.Hist
		p50, p99, p999 := h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999)
		if p50 <= 0 || p99 < p50 || p999 < p99 {
			t.Errorf("%s: implausible percentiles p50=%d p99=%d p999=%d", op.Name, p50, p99, p999)
		}
		if h.SumNs() <= 0 {
			t.Errorf("%s: missing total latency", op.Name)
		}
	}
}

// TestRunRequiresAddr pins the one required option.
func TestRunRequiresAddr(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Fatal("Run without Addr succeeded")
	}
}
