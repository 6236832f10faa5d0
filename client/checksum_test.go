package client

import (
	"reflect"
	"testing"
	"time"

	"cpm"
	"cpm/internal/chaos"
	"cpm/internal/server"
)

// TestChecksumEndToEnd: a Checksum client speaks every frame family
// (bootstrap, register, tick, result poll, subscription stream incl. a
// reconnect resume) against a real server and sees exactly what a plain
// client sees — the trailer is invisible when the link is clean.
func TestChecksumEndToEnd(t *testing.T) {
	_, addr := startServer(t, cpm.Options{GridSize: 16}, server.Options{})
	c, err := Dial(addr, Options{Checksum: true, ReconnectWait: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	wl := testWorkload(t)
	oracle := cpm.NewMonitor(cpm.Options{GridSize: 16})
	defer oracle.Close()

	objs := wl.InitialObjects()
	if err := c.Bootstrap(objs); err != nil {
		t.Fatal(err)
	}
	oracle.Bootstrap(objs)
	for i, q := range wl.InitialQueries() {
		if err := c.RegisterQuery(cpm.QueryID(i), q, 4); err != nil {
			t.Fatal(err)
		}
		if err := oracle.RegisterQuery(cpm.QueryID(i), q, 4); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := c.SubscribeWith(SubscribeOptions{Buffer: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	for i := 0; i < 5; i++ {
		if i == 3 {
			c.breakConn() // resume path: sealed resubscribe + gap/snapshots
		}
		b := wl.Advance()
		if err := c.Tick(b); err != nil {
			t.Fatal(err)
		}
		oracle.Tick(b)
	}
	for i := range wl.InitialQueries() {
		got, err := c.Result(cpm.QueryID(i))
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle.Result(cpm.QueryID(i)); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: checksum client diverged from oracle:\n got %v\nwant %v", i, got, want)
		}
	}
	// The stream must have produced events/gaps without wedging. Delivery
	// runs through the client's pump goroutine, so an empty channel right
	// now proves nothing: wait, bounded, for the first event.
	select {
	case <-sub.Events():
	case <-time.After(5 * time.Second):
		t.Fatal("subscription delivered nothing over a checksum connection")
	}
}

// TestChecksumCatchesCorruption: with CRC trailers negotiated, a link
// that flips bits produces request errors and reconnects — never a
// successful call with silently wrong state. After the link heals, the
// client reconverges with the oracle.
func TestChecksumCatchesCorruption(t *testing.T) {
	_, addr := startServer(t, cpm.Options{GridSize: 16}, server.Options{})
	link := chaos.NewLink(11)
	c, err := Dial(addr, Options{
		Checksum:      true,
		Dialer:        link.Dialer(nil),
		DialTimeout:   500 * time.Millisecond,
		Backoff:       5 * time.Millisecond,
		MaxBackoff:    50 * time.Millisecond,
		ReconnectWait: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	wl := testWorkload(t)
	oracle := cpm.NewMonitor(cpm.Options{GridSize: 16})
	defer oracle.Close()
	objs := wl.InitialObjects()
	if err := c.Bootstrap(objs); err != nil {
		t.Fatal(err)
	}
	oracle.Bootstrap(objs)
	for i, q := range wl.InitialQueries() {
		if err := c.RegisterQuery(cpm.QueryID(i), q, 4); err != nil {
			t.Fatal(err)
		}
		if err := oracle.RegisterQuery(cpm.QueryID(i), q, 4); err != nil {
			t.Fatal(err)
		}
	}

	// tick bounds one attempt: a corrupted length prefix can leave the
	// server waiting for frame bytes that never come (the CRC covers the
	// body, not the prefix), so a stalled call is cut by dropping the
	// connection — the same move a coordinator's op timeout makes.
	tick := func(b cpm.Batch) error {
		done := make(chan error, 1)
		go func() { done <- c.Tick(b) }()
		select {
		case err := <-done:
			return err
		case <-time.After(time.Second):
			c.breakConn()
			return <-done
		}
	}

	// Corrupt every client->server write. Every tick attempt must either
	// succeed cleanly (the server confirmed it: only then does the oracle
	// advance) or fail loudly. Retrying is safe here: a corrupted request
	// frame is rejected (or never completed) before the monitor sees it,
	// so a failed attempt provably did not apply.
	link.Set(chaos.Fault{Class: chaos.Corrupt})
	var failures int
	for i := 0; i < 5; i++ {
		b := wl.Advance()
		err := tick(b)
		for err != nil {
			failures++
			if failures > 1000 {
				t.Fatal("tick never got through; giving up")
			}
			if failures == 10 {
				link.Clear() // heal; the reconnect should recover the session
			}
			err = tick(b)
		}
		oracle.Tick(b)
	}
	if failures == 0 {
		t.Fatal("corrupting link produced zero request failures — corruption went undetected")
	}
	if link.Counters()[chaos.Corrupt] == 0 {
		t.Fatal("corrupt fault never fired")
	}
	for i := range wl.InitialQueries() {
		got, err := c.Result(cpm.QueryID(i))
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle.Result(cpm.QueryID(i)); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d diverged after corruption storm:\n got %v\nwant %v", i, got, want)
		}
	}
}
