package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"
)

// Stream errors.
var (
	// ErrClosed reports an operation on a closed stream.
	ErrClosed = errors.New("transport: stream closed")
	// ErrDisconnected fails an RPC whose outcome is unknown: the
	// request was written (or handed to the writer) but no response
	// arrived — the connection broke, or the caller's ctx expired with
	// the call on the wire. The receiver may or may not have processed
	// it, so a caller may retry it only if the request is idempotent.
	// Check with errors.Is: the ctx-expiry case wraps both this and
	// the ctx error.
	ErrDisconnected = errors.New("transport: call in flight with no response")
	// ErrUnreachable fails an RPC that was never written: the stream
	// had no live connection and the dial the call waited for failed.
	// The peer never saw the request, so any caller may retry it or
	// fail over. It wraps the dial error.
	ErrUnreachable = errors.New("transport: peer unreachable")
)

// Config tunes a stream endpoint (either side).
type Config struct {
	// Window bounds outstanding RPCs (0 = 64). The enqueue queue holds
	// up to twice the window before Call blocks.
	Window int
	// MaxPayload bounds one frame's decoded payload
	// (0 = DefaultMaxPayload).
	MaxPayload int
	// Compress enables per-frame flate for payloads not marked raw.
	Compress bool
	// DialTimeout bounds one dial attempt (0 = 5s).
	DialTimeout time.Duration
	// BackoffBase/BackoffMax shape the background redial backoff after
	// a failed dial (0 = 50ms / 3s). A Call never waits it out.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Metrics receives transport counters (nil = none).
	Metrics *Metrics
	// Logf receives connection lifecycle lines (nil = discard).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.MaxPayload <= 0 {
		c.MaxPayload = DefaultMaxPayload
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 3 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Dialer opens one connection to the stream's peer.
type Dialer func(ctx context.Context) (net.Conn, error)

// pending is one RPC awaiting write and response.
type pending struct {
	flags   byte
	seq     uint64
	msg     []byte
	written bool           // handed to the writer: the peer may see it
	resp    chan rpcResult // receives the response exactly once
}

type rpcResult struct {
	payload []byte
	err     error
}

// Stream is the calling end of a persistent connection: callers
// enqueue RPCs, a writer goroutine batches them onto the wire
// (flushing when the queue idles), and responses match their calls by
// sequence number. A call is never replayed: one in flight across a
// disconnect fails with ErrDisconnected, and one queued while the
// stream has no connection waits for the dial in flight (or starts one
// at once) and fails with ErrUnreachable if that dial fails.
type Stream struct {
	dial   Dialer
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	// kick wakes the loop out of a redial backoff when a call is
	// queued.
	kick chan struct{}

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*pending          // enqueued, not yet written on the live conn
	calls  map[uint64]*pending // written, awaiting their resp
	seq    uint64
	closed bool
	broken bool     // the live conn failed; writer must stop
	conn   net.Conn // live conn, for Close to unblock the reader

	loopDone chan struct{}
}

// Open starts a stream over dial. The first connection is established
// in the background; Call may be used immediately.
func Open(dial Dialer, cfg Config) *Stream {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Stream{
		dial:     dial,
		cfg:      cfg.withDefaults(),
		ctx:      ctx,
		cancel:   cancel,
		kick:     make(chan struct{}, 1),
		calls:    make(map[uint64]*pending),
		loopDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.loop()
	return s
}

// Call performs one RPC over the stream, honoring ctx. raw marks an
// already-compressed payload (shipped verbatim). Concurrent calls
// multiplex; responses match by sequence number.
func (s *Stream) Call(ctx context.Context, msg []byte, raw bool) ([]byte, error) {
	s.mu.Lock()
	if err := s.waitSpaceLocked(ctx); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.seq++
	p := &pending{seq: s.seq, msg: msg, resp: make(chan rpcResult, 1)}
	if raw {
		p.flags = FlagRaw
	}
	s.queue = append(s.queue, p)
	s.cond.Broadcast()
	s.mu.Unlock()
	select {
	case s.kick <- struct{}{}:
	default: // a kick is already pending
	}

	select {
	case r := <-p.resp:
		return r.payload, r.err
	case <-ctx.Done():
		// Abandon the call: drop it wherever it sits so a late response
		// is discarded and the window slot frees. Whether the writer
		// took it decides what the caller may do next — never written
		// means the peer never saw it; written means the peer may still
		// execute it.
		s.mu.Lock()
		written := p.written
		s.queue = slices.DeleteFunc(s.queue, func(q *pending) bool { return q == p })
		delete(s.calls, p.seq)
		s.cond.Broadcast()
		s.mu.Unlock()
		if !written {
			return nil, ctx.Err()
		}
		// A response (or disconnect error) may have raced the expiry
		// onto p.resp after we dropped the call — prefer the real
		// outcome over guessing.
		select {
		case r := <-p.resp:
			return r.payload, r.err
		default:
		}
		return nil, fmt.Errorf("%w: %w", ErrDisconnected, ctx.Err())
	}
}

// waitSpaceLocked blocks until the enqueue queue has room, the ctx is
// done, or the stream closes.
func (s *Stream) waitSpaceLocked(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	for {
		if s.closed {
			return ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(s.queue) < 2*s.cfg.Window {
			return nil
		}
		s.cond.Wait()
	}
}

// Close shuts the stream down: the connection drops and every queued
// or in-flight RPC returns ErrClosed.
func (s *Stream) Close() error {
	s.mu.Lock()
	s.closed = true
	conn := s.conn
	s.conn = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	s.cancel()
	if conn != nil {
		conn.Close()
	}
	<-s.loopDone
	return nil
}

// loop owns the connection lifecycle: dial, run the connection until
// it breaks, repeat. A failed dial fails the calls that waited for it
// and backs off before the next attempt, unless a new call cuts the
// backoff short.
func (s *Stream) loop() {
	defer close(s.loopDone)
	defer func() {
		s.mu.Lock()
		ps := append(s.takeQueuedLocked(), s.takeWrittenLocked()...)
		s.mu.Unlock()
		resolve(ps, ErrClosed)
	}()
	backoff := s.cfg.BackoffBase
	connected := false
	for {
		dctx, cancel := context.WithTimeout(s.ctx, s.cfg.DialTimeout)
		conn, err := s.dial(dctx)
		cancel()
		if err != nil {
			s.cfg.Metrics.dialFail()
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				return
			}
			ps := s.takeQueuedLocked()
			s.mu.Unlock()
			resolve(ps, fmt.Errorf("%w: %w", ErrUnreachable, err))
			if !s.sleep(backoff) {
				return
			}
			backoff = min(2*backoff, s.cfg.BackoffMax)
			continue
		}
		if connected {
			s.cfg.Metrics.reconnect()
			s.cfg.Logf("transport: reconnected to %s", conn.RemoteAddr())
		}
		connected = true
		backoff = s.cfg.BackoffBase

		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conn = conn
		s.broken = false
		s.mu.Unlock()

		s.cfg.Metrics.streamUp()
		s.runConn(conn)
		s.cfg.Metrics.streamDown()
		conn.Close()

		// Fail RPCs written but unanswered: replaying them is unsafe.
		// Calls still queued wait for the redial that follows at once.
		s.mu.Lock()
		s.conn = nil
		closed := s.closed
		ps := s.takeWrittenLocked()
		s.mu.Unlock()
		resolve(ps, ErrDisconnected)
		if closed {
			return
		}
	}
}

// runConn drives one live connection: a reader goroutine consumes
// responses while this goroutine writes frames, flushing the buffered
// writer whenever the queue idles (send-side batching).
func (s *Stream) runConn(conn net.Conn) {
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		s.readLoop(conn)
	}()

	bw := bufio.NewWriterSize(conn, 64<<10)
	needFlush := false
	for {
		p, ok := s.nextFrame(needFlush)
		if !ok {
			break
		}
		if p == nil {
			if err := bw.Flush(); err != nil {
				s.markBroken()
				break
			}
			needFlush = false
			continue
		}
		n, compressed, err := WriteFrame(bw, Frame{Type: FrameReq, Flags: p.flags, Seq: p.seq, Payload: p.msg}, s.cfg.Compress)
		if err != nil {
			s.markBroken()
			break
		}
		s.cfg.Metrics.sent(n, compressed)
		needFlush = true
	}
	if bw.Buffered() > 0 {
		_ = bw.Flush()
	}
	// Unblock the reader and wait for it: the conn is single-owner
	// again when runConn returns.
	conn.Close()
	<-readerDone
}

// nextFrame blocks until a call is writable (queue non-empty and
// window open), returning (nil, true) when the caller should flush
// instead (wantFlush set and nothing ready), and (nil, false) when
// the connection or stream is done.
func (s *Stream) nextFrame(wantFlush bool) (*pending, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed || s.broken {
			return nil, false
		}
		if len(s.queue) > 0 && len(s.calls) < s.cfg.Window {
			p := s.queue[0]
			s.queue = s.queue[1:]
			p.written = true
			s.calls[p.seq] = p
			s.cond.Broadcast() // queue space freed
			return p, true
		}
		if wantFlush {
			return nil, true
		}
		s.cond.Wait()
	}
}

// readLoop consumes resp frames until the connection fails.
func (s *Stream) readLoop(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		f, n, err := ReadFrame(br, s.cfg.MaxPayload)
		if err != nil {
			s.markBroken()
			return
		}
		s.cfg.Metrics.received(n)
		if f.Type != FrameResp {
			continue
		}
		s.mu.Lock()
		p := s.calls[f.Seq]
		delete(s.calls, f.Seq)
		s.cond.Broadcast() // window slot freed
		s.mu.Unlock()
		if p != nil {
			p.resp <- rpcResult{payload: f.Payload}
		}
	}
}

func (s *Stream) markBroken() {
	s.mu.Lock()
	s.broken = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// sleep waits out the redial backoff d, returning true when it lapses
// or a call is queued — a caller never waits out the backoff — and
// false when the stream closes.
func (s *Stream) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return false
		case <-t.C:
			return true
		case <-s.kick:
			// A kick left over from a call the last connection served
			// finds the queue empty; keep sleeping.
			s.mu.Lock()
			queued := len(s.queue) > 0
			s.mu.Unlock()
			if queued {
				return true
			}
		}
	}
}

// takeQueuedLocked empties the queue of unwritten calls.
func (s *Stream) takeQueuedLocked() []*pending {
	ps := s.queue
	s.queue = nil
	s.cond.Broadcast()
	return ps
}

// takeWrittenLocked empties the set of written, unanswered calls.
func (s *Stream) takeWrittenLocked() []*pending {
	ps := make([]*pending, 0, len(s.calls))
	for _, p := range s.calls {
		ps = append(ps, p)
	}
	clear(s.calls)
	s.cond.Broadcast()
	return ps
}

// resolve fails each call with err.
func resolve(ps []*pending, err error) {
	for _, p := range ps {
		p.resp <- rpcResult{err: err}
	}
}
