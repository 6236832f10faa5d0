// Package cmdutil carries the observability plumbing the cmd/ binaries
// share: structured logging behind one -log-level convention, tracer
// construction from the -trace-sample/-slow-op/-trace-cap flag trio, and
// the -metrics endpoint with its debug HTTP handlers (/debug/traces,
// optional /debug/pprof).
//
// Log lines use a consistent key vocabulary across binaries — worker,
// conn, trace_id, addr, op — so one grep (or one log pipeline) reads a
// whole deployment.
package cmdutil

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"cpm/internal/tracing"
)

// ParseLevel maps a -log-level flag value onto a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
	}
}

// Logger builds the binary's logger: a text handler on stderr at the
// given -log-level, tagged with the program name, installed as the slog
// default. A bad level is flag misuse and exits 2, like flag.Parse.
func Logger(prog, level string) *slog.Logger {
	lvl, err := ParseLevel(level)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
		os.Exit(2)
	}
	l := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})).With("prog", prog)
	slog.SetDefault(l)
	return l
}

// Fatal logs one error-level line and exits 1 — the slog replacement for
// log.Fatalf in the binaries.
func Fatal(l *slog.Logger, msg string, args ...any) {
	l.Error(msg, args...)
	os.Exit(1)
}

// Logf adapts a slog logger to the printf-style Logf hooks internal/server
// and internal/cluster expose, at debug level: connection and worker
// lifecycle diagnostics appear under -log-level debug and cost nothing
// above it.
func Logf(l *slog.Logger) func(format string, args ...any) {
	return func(format string, args ...any) {
		if l.Enabled(context.Background(), slog.LevelDebug) {
			l.Debug(fmt.Sprintf(format, args...))
		}
	}
}

// TraceConfig is the tracer flag trio every serving binary exposes.
type TraceConfig struct {
	Sample float64       // -trace-sample: head-sampling probability
	SlowOp time.Duration // -slow-op: force-record ops at least this slow
	Cap    int           // -trace-cap: flight-recorder capacity
}

// Build constructs the tracer (nil when the config records nothing) with
// an OnSlow hook that logs each slow op with its trace id, so an operator
// can jump from the log line to /debug/traces?id=<trace_id>.
func (c TraceConfig) Build(l *slog.Logger) *tracing.Tracer {
	return tracing.New(tracing.Options{
		SampleRate: c.Sample,
		SlowOp:     c.SlowOp,
		Capacity:   c.Cap,
		OnSlow: func(tr tracing.RecordedTrace) {
			l.Warn("slow op recorded",
				"op", tr.Name,
				"trace_id", TraceID(tr.TraceID),
				"duration", time.Duration(tr.DurNs))
		},
	})
}

// TraceID renders a trace id the way the JSON surfaces do — fixed-width
// hex — so log lines and /debug/traces lookups agree.
func TraceID(id uint64) string { return fmt.Sprintf("%016x", id) }

// MountDebug mounts the debug surfaces on a -metrics mux: the flight
// recorder under /debug/traces (list, ?id=<hex>, /<hex>) and — only when
// the -pprof flag opted in — the net/http/pprof profiling handlers under
// /debug/pprof/. The pprof handlers are mounted explicitly rather than via
// the package's init side effect, so nothing leaks onto a mux that did not
// ask for it.
func MountDebug(mux *http.ServeMux, t *tracing.Tracer, pprofOn bool) {
	mux.Handle("/debug/traces", t.Handler())
	mux.Handle("/debug/traces/", t.Handler())
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// ServeMetrics serves a binary's -metrics endpoint on addr until the
// listener fails: the pages, written in order as one plain-text page on
// /metrics (and on /, for curl convenience), plus the debug surfaces of
// MountDebug. A listen failure is logged, not fatal: the binary keeps
// serving its protocol without the endpoint.
func ServeMetrics(l *slog.Logger, addr string, t *tracing.Tracer, pprofOn bool, pages ...func(io.Writer) error) {
	mux := http.NewServeMux()
	handler := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, page := range pages {
			page(w)
		}
	}
	mux.HandleFunc("/metrics", handler)
	mux.HandleFunc("/", handler)
	MountDebug(mux, t, pprofOn)
	l.Info("metrics endpoint up", "url", "http://"+addr+"/metrics")
	if err := http.ListenAndServe(addr, mux); err != nil {
		l.Error("metrics endpoint failed", "err", err)
	}
}
