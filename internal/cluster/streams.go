package cluster

import (
	"context"
	"encoding/json"
	"log"
	"net"
	"sync"

	"repro/internal/repo"
	"repro/internal/server"
	"repro/internal/transport"
)

// streamPool lazily maintains one persistent framed stream per node —
// the gateway's one path for moving blobs and batches to nodes.
// Streams open on first use, redial on their own, and close when the
// node leaves the cluster or the gateway stops.
type streamPool struct {
	metrics *transport.Metrics

	mu      sync.Mutex
	streams map[string]*transport.Stream
	closed  bool
}

func newStreamPool(m *transport.Metrics) *streamPool {
	return &streamPool{metrics: m, streams: make(map[string]*transport.Stream)}
}

// get returns the node's stream, opening it on first use (the dial
// itself runs in the background). Nil once the pool is closed.
func (p *streamPool) get(node string) *transport.Stream {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	if st, ok := p.streams[node]; ok {
		return st
	}
	// Frames go out uncompressed, like the node's side of the stream
	// (see server.handleStream for why).
	st := transport.Open(func(ctx context.Context) (net.Conn, error) {
		return transport.Dial(ctx, node)
	}, transport.Config{Metrics: p.metrics, Logf: log.Printf})
	p.streams[node] = st
	return st
}

// drop closes and forgets the node's stream (node left the cluster).
func (p *streamPool) drop(node string) {
	p.mu.Lock()
	st := p.streams[node]
	delete(p.streams, node)
	p.mu.Unlock()
	if st != nil {
		st.Close()
	}
}

// closeAll shuts the pool down for gateway stop.
func (p *streamPool) closeAll() {
	p.mu.Lock()
	sts := make([]*transport.Stream, 0, len(p.streams))
	for _, st := range p.streams {
		sts = append(sts, st)
	}
	clear(p.streams)
	p.closed = true
	p.mu.Unlock()
	for _, st := range sts {
		st.Close()
	}
}

// call runs one RPC on the node's stream and decodes its result into
// out. A node with no live connection costs one dial: if it fails the
// call returns transport.ErrUnreachable, never written.
func (g *Gateway) call(ctx context.Context, node string, msg []byte, raw bool, out any) error {
	if g.reg.Client(node) == nil {
		return errNotMember
	}
	st := g.streams.get(node)
	if st == nil {
		return transport.ErrClosed
	}
	resp, err := st.Call(ctx, msg, raw)
	if err != nil {
		return err
	}
	return server.DecodeStreamResult(resp, out)
}

// putBlobNode copies a blob to one node and waits for the outcome (a
// 410 turns a repair copy into delete propagation). The container
// ships raw (it is already LZSS-compressed end to end), addressed by
// its content digest, which the node re-verifies on arrival. The put
// is idempotent, so transport failures retry per the gateway's retry
// policy.
func (g *Gateway) putBlobNode(ctx context.Context, node string, data []byte, force bool) (server.PutVBSResponse, error) {
	var out server.PutVBSResponse
	msg := transport.EncodeObjPut([32]byte(repo.DigestOf(data)), force, data)
	err := g.retryTransport(ctx, node, func(ctx context.Context) error {
		return g.call(ctx, node, msg, true, &out)
	})
	return out, err
}

// nodeBatch runs one sub-batch on a node as one RPC. It is never
// retried: a call cut mid-flight may have executed, and loads are not
// idempotent.
func (g *Gateway) nodeBatch(ctx context.Context, node string, req server.BatchRequest) (server.BatchResponse, error) {
	var out server.BatchResponse
	g.proxied.Add(1)
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	hctx, cancel := context.WithTimeout(ctx, g.hop)
	defer cancel()
	err = g.call(hctx, node, transport.EncodeMsg(transport.MsgBatch, body), false, &out)
	g.observe(node, err)
	return out, err
}
