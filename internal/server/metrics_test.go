package server

import (
	"bytes"
	"strings"
	"testing"

	"cpm"
	"cpm/internal/geom"
	"cpm/internal/model"
	"cpm/internal/wire"
)

// TestStatsFrame drives a few operations over the wire and polls the
// server's metrics through a StatsReq frame: the counters must reflect
// the traffic, and the wire snapshot must cover the whole registry.
func TestStatsFrame(t *testing.T) {
	s, addr := startServer(t, cpm.Options{GridSize: 16})
	tc := dialRaw(t, addr)

	tc.write(wire.AppendBootstrap(nil, 1, []wire.BootstrapObject{
		{ID: 1, Pos: geom.Point{X: 0.1, Y: 0.1}},
		{ID: 2, Pos: geom.Point{X: 0.9, Y: 0.9}},
	}))
	tc.expectAck(1, false)
	tc.write(wire.AppendRegister(nil, 2, wire.Register{ID: 7, Kind: wire.KindPoint, K: 1, Points: []geom.Point{{X: 0.1, Y: 0.1}}}))
	tc.expectAck(2, false)
	tc.write(wire.AppendTick(nil, 3, model.Batch{Objects: []model.Update{
		model.MoveUpdate(2, geom.Point{X: 0.9, Y: 0.9}, geom.Point{X: 0.2, Y: 0.2}),
	}}))
	tc.expectAck(3, false)

	tc.write(wire.AppendStatsReq(nil, 4))
	typ, payload, err := tc.next()
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.FrameStats {
		t.Fatalf("stats answered with %v", typ)
	}
	reqID, stats, err := wire.DecodeStats(payload)
	if err != nil {
		t.Fatal(err)
	}
	if reqID != 4 {
		t.Fatalf("stats reqID = %d, want 4", reqID)
	}

	byName := map[string]int64{}
	for _, st := range stats {
		byName[st.Name] = st.Value
	}
	checks := []struct {
		name string
		min  int64
	}{
		{"cpm_server_connections_accepted_total", 1},
		{"cpm_server_connections_active", 1},
		{"cpm_server_frames_in_total", 5}, // hello + 4 requests
		{"cpm_server_frames_out_total", 4},
		{"cpm_server_handle_tick_ns_count", 1},
		{"cpm_server_handle_register_ns_count", 1},
		{"cpm_server_handle_bootstrap_ns_count", 1},
		{"cpm_monitor_cycle_ns_count", 1},
		{"cpm_monitor_cycles_total", 1},
		{"cpm_monitor_objects", 2},
		{"cpm_monitor_queries", 1},
		{"cpm_monitor_grid_size", 16},
	}
	for _, c := range checks {
		v, ok := byName[c.name]
		if !ok {
			t.Errorf("stat %s missing", c.name)
			continue
		}
		if v < c.min {
			t.Errorf("%s = %d, want >= %d", c.name, v, c.min)
		}
	}

	// The wire snapshot and the registry expose the same stat set.
	if want := len(s.Metrics().Snapshot()); len(stats) != want {
		t.Errorf("wire snapshot has %d stats, registry %d", len(stats), want)
	}
}

// TestSubscriptionMetrics checks the subscription gauge and the event/gap
// counters move with subscribe traffic.
func TestSubscriptionMetrics(t *testing.T) {
	s, addr := startServer(t, cpm.Options{GridSize: 16})
	tc := dialRaw(t, addr)

	tc.write(wire.AppendBootstrap(nil, 1, []wire.BootstrapObject{{ID: 1, Pos: geom.Point{X: 0.5, Y: 0.5}}}))
	tc.expectAck(1, false)
	tc.write(wire.AppendSubscribe(nil, 2, wire.Subscribe{SubID: 1}))
	tc.expectAck(2, false)
	if got := s.met.subsActive.Load(); got != 1 {
		t.Fatalf("subscriptions_active = %d, want 1", got)
	}
	if got := s.met.subscribes.Load(); got != 1 {
		t.Fatalf("subscribes_total = %d, want 1", got)
	}

	// A register publishes a DiffInstall event to the subscriber; the event
	// may reach the connection before or after the register's ack.
	tc.write(wire.AppendRegister(nil, 3, wire.Register{ID: 9, Kind: wire.KindRange, Points: []geom.Point{{X: 0.5, Y: 0.5}}, Radius: 0.2}))
	for acked, evented := false, false; !acked || !evented; {
		typ, payload, err := tc.next()
		if err != nil {
			t.Fatal(err)
		}
		switch typ {
		case wire.FrameEvent:
			evented = true
		case wire.FrameAck:
			if id, msg, err := wire.DecodeAck(payload); err != nil || id != 3 || msg != "" {
				t.Fatalf("ack %d %q (%v), want a clean ack 3", id, msg, err)
			}
			acked = true
		}
	}
	if got := s.met.eventsOut.Load(); got < 1 {
		t.Fatalf("events_out_total = %d, want >= 1", got)
	}

	tc.write(wire.AppendUnsubscribe(nil, 4, 1))
	tc.expectAck(4, false)
	if got := s.met.subsActive.Load(); got != 0 {
		t.Fatalf("subscriptions_active after unsubscribe = %d, want 0", got)
	}
}

// TestMetricsTextEndpointShape renders the registry the way cmd/cpmserver's
// /metrics endpoint does and sanity-checks the exposition format.
func TestMetricsTextEndpointShape(t *testing.T) {
	s, _ := startServer(t, cpm.Options{GridSize: 16})
	var buf bytes.Buffer
	if err := s.Metrics().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 20 {
		t.Fatalf("expected a full metrics page, got %d lines", len(lines))
	}
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) != 2 || !strings.HasPrefix(f[0], "cpm_") {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}
