package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// UpgradeProto names the protocol in the HTTP Upgrade handshake. The
// stream endpoint rides the daemons' existing listeners: a client
// GETs /stream with "Upgrade: vbs-stream/1", the server hijacks the
// connection, answers 101, and both sides switch to the frame codec —
// no second port, no new address flags.
const UpgradeProto = "vbs-stream/1"

// DefaultPath is where the daemons mount the upgrade endpoint.
const DefaultPath = "/stream"

// Handlers processes decoded messages on the receiving end of a
// stream.
type Handlers struct {
	// Call handles an RPC message and returns the response payload
	// (conventionally an EncodeResult envelope) plus whether it is
	// already-compressed (raw).
	Call func(msg []byte) (resp []byte, raw bool)
}

// Serve runs the receiving end of one upgraded connection until it
// fails or the peer disconnects (which returns nil). RPCs run
// concurrently, their responses multiplexed by sequence number; frames
// of any other type are read and ignored.
func Serve(conn net.Conn, h Handlers, cfg Config) error {
	cfg = cfg.withDefaults()
	cfg.Metrics.streamUp()
	defer cfg.Metrics.streamDown()

	done := make(chan struct{})
	defer close(done)
	resps := make(chan Frame, cfg.Window)

	// Writer goroutine: responses flow through resps, and the buffered
	// writer flushes only when resps goes idle — the receive-side half
	// of batching.
	go func() {
		bw := bufio.NewWriterSize(conn, 64<<10)
		for {
			select {
			case f := <-resps:
				n, compressed, err := WriteFrame(bw, f, cfg.Compress)
				if err != nil {
					return
				}
				cfg.Metrics.sent(n, compressed)
			case <-done:
				return
			}
			if len(resps) == 0 && bw.Flush() != nil {
				return
			}
		}
	}()

	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		f, n, err := ReadFrame(br, cfg.MaxPayload)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			cfg.Metrics.recvError()
			return err
		}
		cfg.Metrics.received(n)
		if f.Type != FrameReq {
			continue
		}
		go func(f Frame) {
			var resp []byte
			var raw bool
			if h.Call != nil {
				resp, raw = h.Call(f.Payload)
			} else {
				resp = EncodeResult(http.StatusNotImplemented, nil)
			}
			out := Frame{Type: FrameResp, Seq: f.Seq, Payload: resp}
			if raw {
				out.Flags = FlagRaw
			}
			select {
			case resps <- out:
			case <-done:
			}
		}(f)
	}
}

// Upgrade completes the server half of the handshake: it validates
// the Upgrade header, hijacks the HTTP connection, writes the 101,
// and returns the raw connection ready for Serve. On error the HTTP
// response has already been written.
func Upgrade(w http.ResponseWriter, r *http.Request) (net.Conn, error) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), UpgradeProto) {
		http.Error(w, "vbs-stream upgrade required", http.StatusUpgradeRequired)
		return nil, fmt.Errorf("transport: missing Upgrade: %s", UpgradeProto)
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "connection cannot be hijacked", http.StatusInternalServerError)
		return nil, errors.New("transport: response writer is not a hijacker")
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		http.Error(w, "hijack failed", http.StatusInternalServerError)
		return nil, err
	}
	if _, err := conn.Write([]byte("HTTP/1.1 101 Switching Protocols\r\nUpgrade: " +
		UpgradeProto + "\r\nConnection: Upgrade\r\n\r\n")); err != nil {
		conn.Close()
		return nil, err
	}
	// Bytes the client pipelined behind its handshake may already sit
	// in the server's read buffer; keep them.
	if rw.Reader.Buffered() > 0 {
		return &bufferedConn{Conn: conn, r: rw.Reader}, nil
	}
	return conn, nil
}

// Dial connects to a daemon's upgrade endpoint and completes the
// client half of the handshake, returning the raw framed connection.
func Dial(ctx context.Context, baseURL string) (net.Conn, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", baseURL, err)
	}
	if u.Scheme != "http" {
		return nil, fmt.Errorf("transport: dial %s: only http base URLs upgrade to streams", baseURL)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", host)
	if err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	}
	req := "GET " + DefaultPath + " HTTP/1.1\r\nHost: " + host +
		"\r\nConnection: Upgrade\r\nUpgrade: " + UpgradeProto + "\r\n\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: upgrade handshake: %w", err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		resp.Body.Close()
		conn.Close()
		return nil, fmt.Errorf("transport: upgrade refused: %s", resp.Status)
	}
	_ = conn.SetDeadline(time.Time{})
	if br.Buffered() > 0 {
		return &bufferedConn{Conn: conn, r: br}, nil
	}
	return conn, nil
}

// bufferedConn drains a bufio.Reader's leftover bytes before reading
// from the underlying connection.
type bufferedConn struct {
	net.Conn
	r *bufio.Reader
}

func (c *bufferedConn) Read(p []byte) (int, error) { return c.r.Read(p) }
