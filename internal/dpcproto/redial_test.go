package dpcproto

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"floodguard/internal/faultinject"
)

func TestBackoffGrowsAndCaps(t *testing.T) {
	b := Backoff{Min: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := b.Delay(i, nil); got != w*time.Millisecond {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
}

func TestBackoffJitterStaysInBounds(t *testing.T) {
	b := Backoff{Min: 100 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.2}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		d := b.Delay(0, rng)
		if d < 80*time.Millisecond || d > 120*time.Millisecond {
			t.Fatalf("jittered delay %v outside ±20%% of 100ms", d)
		}
	}
}

func TestBackoffZeroValueIsSane(t *testing.T) {
	var b Backoff
	if d := b.Delay(3, nil); d <= 0 {
		t.Fatalf("zero-value backoff delay = %v", d)
	}
}

// recordServer accepts sideband connections one at a time and collects
// replay records across connection generations.
type recordServer struct {
	ln net.Listener

	mu      sync.Mutex
	replays []Replay
	conns   int
	cur     net.Conn
}

func newRecordServer(t *testing.T) *recordServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &recordServer{ln: ln}
	go s.acceptLoop()
	t.Cleanup(func() { ln.Close(); s.dropConn() })
	return s
}

func (s *recordServer) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.conns++
		s.cur = conn
		s.mu.Unlock()
		go s.serve(conn)
	}
}

func (s *recordServer) serve(conn net.Conn) {
	r := NewReader(conn, 0)
	for {
		rec, err := r.Read()
		if err != nil {
			return
		}
		if rp, ok := rec.(Replay); ok {
			s.mu.Lock()
			s.replays = append(s.replays, rp)
			s.mu.Unlock()
		}
	}
}

func (s *recordServer) dropConn() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur != nil {
		_ = s.cur.Close()
		s.cur = nil
	}
}

func (s *recordServer) replayCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.replays)
}

func (s *recordServer) connCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conns
}

func tcpDialer(addr string) DialFunc {
	return func() (io.ReadWriteCloser, error) {
		return net.DialTimeout("tcp", addr, time.Second)
	}
}

func waitCond(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func fastBackoff() Backoff {
	return Backoff{Min: time.Millisecond, Max: 20 * time.Millisecond, Factor: 2, Jitter: 0.1}
}

func TestRedialReconnectsAfterPeerDrop(t *testing.T) {
	srv := newRecordServer(t)
	c := NewRedial(tcpDialer(srv.ln.Addr().String()), RedialOptions{
		Backoff: fastBackoff(), WriteTimeout: time.Second, Seed: 1,
	})
	defer c.Close()
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}

	if err := c.WriteReplay(1, 2, []byte{0xaa}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return srv.replayCount() == 1 }, "first replay")

	// Kill the server side; the next writes fail, the channel heals, and
	// retried records land on the new connection.
	srv.dropConn()
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := c.WriteReplay(1, 2, []byte{0xbb})
		if err == nil && c.Redials() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("channel never healed: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitCond(t, func() bool { return srv.replayCount() >= 2 }, "replay after reconnect")
	if srv.connCount() < 2 {
		t.Fatalf("server saw %d connections, want ≥ 2", srv.connCount())
	}
	if c.Failures() == 0 {
		t.Error("Failures() = 0 after a dropped connection")
	}
}

func TestRedialWriteFailsFastWhileDown(t *testing.T) {
	// Dial into a dead address: writes must return immediately with
	// ErrReconnecting, never block on the backoff loop.
	c := NewRedial(func() (io.ReadWriteCloser, error) {
		return nil, errors.New("down")
	}, RedialOptions{Backoff: fastBackoff()})
	defer c.Close()

	start := time.Now()
	for i := 0; i < 100; i++ {
		if err := c.Write(Rate{PPS: 1}); !errors.Is(err, ErrReconnecting) {
			t.Fatalf("Write = %v, want ErrReconnecting", err)
		}
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("100 fail-fast writes took %v", d)
	}
}

func TestRedialReadBlocksAcrossReconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Server: send one Rate, slam the conn, then send another on the
	// redialled conn.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_ = Write(conn, Rate{PPS: 11})
		time.Sleep(20 * time.Millisecond)
		conn.Close()
		conn2, err := ln.Accept()
		if err != nil {
			return
		}
		_ = Write(conn2, Rate{PPS: 22})
	}()

	c := NewRedial(tcpDialer(ln.Addr().String()), RedialOptions{Backoff: fastBackoff(), Seed: 3})
	defer c.Close()
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	rec, err := c.Read()
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := rec.(Rate); !ok || r.PPS != 11 {
		t.Fatalf("first record = %+v", rec)
	}
	// This Read spans the disconnect: it must survive it and deliver the
	// post-reconnect record.
	rec, err = c.Read()
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := rec.(Rate); !ok || r.PPS != 22 {
		t.Fatalf("post-reconnect record = %+v", rec)
	}
}

func TestRedialCloseUnblocksRead(t *testing.T) {
	srv := newRecordServer(t)
	c := NewRedial(tcpDialer(srv.ln.Addr().String()), RedialOptions{Backoff: fastBackoff()})
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Read()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Read after Close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Read did not unblock on Close")
	}
	if err := c.Write(Rate{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write after Close = %v, want ErrClosed", err)
	}
}

func TestRedialStateChangeNotifications(t *testing.T) {
	srv := newRecordServer(t)
	var mu sync.Mutex
	var events []bool
	c := NewRedial(tcpDialer(srv.ln.Addr().String()), RedialOptions{
		Backoff: fastBackoff(),
		OnStateChange: func(up bool) {
			mu.Lock()
			events = append(events, up)
			mu.Unlock()
		},
	})
	defer c.Close()
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	// Connect returns once the client's dial completes, which can be
	// before the server's Accept: dropping then would find no connection.
	waitCond(t, func() bool { return srv.connCount() == 1 }, "server accept")
	srv.dropConn()
	// Poke the channel until the failure is observed and healed.
	waitCond(t, func() bool {
		_ = c.Write(Rate{PPS: 5})
		mu.Lock()
		defer mu.Unlock()
		return len(events) >= 3 // up, down, up
	}, "up/down/up notifications")
	mu.Lock()
	defer mu.Unlock()
	if !events[0] || events[1] || !events[2] {
		t.Fatalf("events = %v, want [true false true ...]", events)
	}
}

// TestRedialUnderInjectedDisconnects drives the write path through a
// fault-injected dial that kills the connection every few records: every
// record either lands or is reported failed, and the channel always
// heals — the invariant the cache box's requeue logic builds on.
func TestRedialUnderInjectedDisconnects(t *testing.T) {
	srv := newRecordServer(t)
	inj := faultinject.New(faultinject.Config{Seed: 99, DisconnectEvery: 5})
	c := NewRedial(func() (io.ReadWriteCloser, error) {
		conn, err := net.DialTimeout("tcp", srv.ln.Addr().String(), time.Second)
		if err != nil {
			return nil, err
		}
		return faultinject.WrapConnSplit(conn, inj, nil), nil
	}, RedialOptions{Backoff: fastBackoff(), Seed: 4})
	defer c.Close()
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}

	const want = 40
	delivered := 0
	deadline := time.Now().Add(10 * time.Second)
	for delivered < want {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d records delivered", delivered, want)
		}
		if err := c.WriteReplay(7, 1, []byte{byte(delivered)}); err != nil {
			time.Sleep(time.Millisecond) // channel healing; retry the record
			continue
		}
		delivered++
	}
	waitCond(t, func() bool { return srv.replayCount() >= want }, "all records at the server")
	if c.Redials() == 0 {
		t.Error("expected at least one redial under DisconnectEvery=5")
	}
}
