package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoServer accepts stream connections on a raw TCP listener and
// serves them with the given handlers until closed.
type echoServer struct {
	ln net.Listener
	wg sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn
}

func newEchoServer(t *testing.T, h Handlers, cfg Config) *echoServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &echoServer{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				_ = Serve(conn, h, cfg)
				conn.Close()
			}()
		}
	}()
	t.Cleanup(s.close)
	return s
}

func (s *echoServer) addr() string { return s.ln.Addr().String() }

// dropConns severs every live connection without stopping the
// listener — the mid-stream kill.
func (s *echoServer) dropConns() {
	s.mu.Lock()
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (s *echoServer) close() {
	s.ln.Close()
	s.dropConns()
	s.wg.Wait()
}

func tcpDialer(addr string) Dialer {
	return func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
}

func testConfig() Config {
	return Config{
		Window:      8,
		Compress:    true,
		DialTimeout: 2 * time.Second,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	}
}

// TestStreamCall proves RPC multiplexing: concurrent calls get their
// own responses back.
func TestStreamCall(t *testing.T) {
	srv := newEchoServer(t, Handlers{
		Call: func(msg []byte) ([]byte, bool) {
			// Echo the payload back inside a result envelope.
			return EncodeResult(200, msg), false
		},
	}, testConfig())

	st := Open(tcpDialer(srv.addr()), testConfig())
	defer st.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := make([]byte, 8)
			binary.BigEndian.PutUint64(msg, uint64(i))
			resp, err := st.Call(ctx, msg, false)
			if err != nil {
				errs <- err
				return
			}
			status, body, err := DecodeResult(resp)
			if err != nil || status != 200 || binary.BigEndian.Uint64(body) != uint64(i) {
				errs <- errors.New("response mismatch")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStreamCallDisconnected pins the non-idempotence contract: an
// RPC in flight across a disconnect fails with ErrDisconnected
// instead of silently replaying.
func TestStreamCallDisconnected(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	srv := newEchoServer(t, Handlers{
		Call: func(msg []byte) ([]byte, bool) {
			once.Do(func() { <-block })
			return EncodeResult(200, nil), false
		},
	}, testConfig())
	defer close(block)

	st := Open(tcpDialer(srv.addr()), testConfig())
	defer st.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := st.Call(ctx, []byte("call"), false)
		done <- err
	}()
	// Wait until the request reaches the (blocked) handler, then cut.
	time.Sleep(100 * time.Millisecond)
	srv.dropConns()
	select {
	case err := <-done:
		if !errors.Is(err, ErrDisconnected) {
			t.Fatalf("got %v, want ErrDisconnected", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call did not fail after disconnect")
	}
}

// TestStreamCallExpiredInFlight pins the other half of the
// non-idempotence contract: when the caller's ctx expires after the
// request reached the wire but before a response, the error must mark
// the outcome unknown (ErrDisconnected) so callers do not replay a
// non-idempotent request — on top of the ctx error itself.
func TestStreamCallExpiredInFlight(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	srv := newEchoServer(t, Handlers{
		Call: func(msg []byte) ([]byte, bool) {
			if string(msg) == "hold" {
				<-block // hold the RPC open past the caller's deadline
			}
			return EncodeResult(200, nil), false
		},
	}, testConfig())

	st := Open(tcpDialer(srv.addr()), testConfig())
	defer st.Close()

	// A first call brings the connection up so the next is written.
	warm, cancelWarm := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelWarm()
	if _, err := st.Call(warm, []byte("warm"), false); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	_, err := st.Call(ctx, []byte("hold"), false)
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("got %v, want ErrDisconnected for an in-flight expiry", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want the ctx error preserved", err)
	}
}

// TestStreamCallExpiredQueued is the safe counterpart: a call whose
// ctx expires while it still sits in the queue (the stream never
// connected) was never written, so the error must NOT carry
// ErrDisconnected — a retry is allowed.
func TestStreamCallExpiredQueued(t *testing.T) {
	// A dialer that never connects keeps everything queued.
	st := Open(func(ctx context.Context) (net.Conn, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}, testConfig())
	defer st.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := st.Call(ctx, []byte("call"), false)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if errors.Is(err, ErrDisconnected) {
		t.Fatalf("queued call marked in-flight: %v", err)
	}
}

// TestStreamCloseFailsPending ensures Close resolves a queued call and
// refuses later ones.
func TestStreamCloseFailsPending(t *testing.T) {
	// A dialer that never connects: the call stays queued.
	st := Open(func(ctx context.Context) (net.Conn, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}, testConfig())

	ctx := context.Background()
	callErr := make(chan error, 1)
	go func() {
		_, err := st.Call(ctx, []byte("call"), false)
		callErr <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-callErr:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("call got %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call not failed by Close")
	}
	if _, err := st.Call(ctx, []byte("late"), false); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after close: got %v, want ErrClosed", err)
	}
}

// TestStreamCallWaitsForFirstDial: a call made the moment a stream
// opens waits for the first dial instead of failing.
func TestStreamCallWaitsForFirstDial(t *testing.T) {
	srv := newEchoServer(t, Handlers{
		Call: func(msg []byte) ([]byte, bool) { return EncodeResult(200, msg), false },
	}, testConfig())
	st := Open(tcpDialer(srv.addr()), testConfig())
	defer st.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := st.Call(ctx, []byte("first"), false)
	if err != nil {
		t.Fatalf("call on a fresh stream: %v", err)
	}
	if status, body, err := DecodeResult(resp); err != nil || status != 200 || string(body) != "first" {
		t.Fatalf("response: status %d body %q err %v", status, body, err)
	}
}

// closedAddr returns a loopback address nothing listens on.
func closedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestStreamCallUnreachable: a call to a peer whose listener is gone
// fails with ErrUnreachable after one refused dial — well inside its
// ctx, and never marked as possibly delivered.
func TestStreamCallUnreachable(t *testing.T) {
	st := Open(tcpDialer(closedAddr(t)), testConfig())
	defer st.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	begin := time.Now()
	_, err := st.Call(ctx, []byte("call"), false)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("got %v, want ErrUnreachable", err)
	}
	if errors.Is(err, ErrDisconnected) {
		t.Fatalf("never-written call marked in flight: %v", err)
	}
	if took := time.Since(begin); took > 2*time.Second {
		t.Fatalf("unreachable call took %v, want one refused dial", took)
	}
}

// TestStreamCallSkipsBackoff: after several failed dials have grown
// the redial backoff to seconds, a call to the restarted peer dials at
// once instead of waiting the backoff out.
func TestStreamCallSkipsBackoff(t *testing.T) {
	var target atomic.Value
	target.Store(closedAddr(t))
	cfg := testConfig()
	cfg.BackoffBase = 2 * time.Second
	cfg.BackoffMax = 30 * time.Second
	st := Open(func(ctx context.Context) (net.Conn, error) {
		return tcpDialer(target.Load().(string))(ctx)
	}, cfg)
	defer st.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		if _, err := st.Call(ctx, []byte("down"), false); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("call %d to a down peer: got %v, want ErrUnreachable", i, err)
		}
	}

	srv := newEchoServer(t, Handlers{
		Call: func(msg []byte) ([]byte, bool) { return EncodeResult(200, nil), false },
	}, testConfig())
	target.Store(srv.addr())
	begin := time.Now()
	if _, err := st.Call(ctx, []byte("up"), false); err != nil {
		t.Fatalf("call after the peer restarted: %v", err)
	}
	if took := time.Since(begin); took > time.Second {
		t.Fatalf("call after restart took %v, want an immediate dial (backoff now >= 8s)", took)
	}
}

// TestUpgradeHandshake drives Dial against a real HTTP server that
// hijacks into Serve — the exact path the daemons use.
func TestUpgradeHandshake(t *testing.T) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+DefaultPath, func(w http.ResponseWriter, r *http.Request) {
		conn, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer conn.Close()
		_ = Serve(conn, Handlers{
			Call: func(msg []byte) ([]byte, bool) {
				calls.Add(1)
				return EncodeResult(200, msg), false
			},
		}, testConfig())
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()

	st := Open(func(ctx context.Context) (net.Conn, error) {
		return Dial(ctx, hs.URL)
	}, testConfig())
	defer st.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reply, err := st.Call(ctx, []byte("hello"), false)
	if err != nil {
		t.Fatalf("call over upgraded stream: %v", err)
	}
	if status, body, err := DecodeResult(reply); err != nil || status != 200 || string(body) != "hello" {
		t.Fatalf("response: status %d body %q err %v", status, body, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d calls, want 1", calls.Load())
	}

	// A plain GET without the Upgrade header must be refused cleanly.
	resp, err := http.Get(hs.URL + DefaultPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired {
		t.Fatalf("plain GET got %d, want 426", resp.StatusCode)
	}
}
