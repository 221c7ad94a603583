package main

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span propagation headers. The client stamps its op id and span id on
// every request; the gateway's outbound hops carry the id of the
// gateway span that caused them (see tracingTransport).
const (
	hdrOp     = "X-Perfbench-Op"
	hdrParent = "X-Perfbench-Parent"
)

// span is one timed interval at a layer boundary. Times are
// nanoseconds since the recorder's epoch.
type span struct {
	ID     uint64
	Parent uint64 // 0 = root
	Op     uint64 // client op id; 0 = background work no op caused
	Layer  string // "client", "cluster" or "server"
	Kind   string // op kind: load, get, unload, put, batch, head, ...
	Start  int64
	End    int64
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the traced run ends.
type recorder struct {
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) newID() uint64 { return r.next.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanRef travels in a request context from a traced handler to the
// outbound hops it makes.
type spanRef struct{ id, op uint64 }

type spanKey struct{}

// routeKind names the op a daemon request performs, or "" for
// requests that are not traced (probes, scrapes, the long-lived
// stream upgrade).
func routeKind(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/tasks":
		return "load"
	case r.Method == http.MethodPost && p == "/tasks:batch":
		return "batch"
	case r.Method == http.MethodDelete && strings.HasPrefix(p, "/tasks/"):
		return "unload"
	case r.Method == http.MethodPost && p == "/vbs":
		return "put"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/vbs/"):
		return "get"
	case r.Method == http.MethodHead && strings.HasPrefix(p, "/vbs/"):
		return "head"
	case r.Method == http.MethodGet && (p == "/fabrics" || p == "/vbs" || p == "/tasks"):
		return "list"
	}
	return ""
}

// middleware wraps a daemon handler with a span per traced request.
// The span's parent and op come from the propagation headers.
func (r *recorder) middleware(layer string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		kind := routeKind(req)
		if kind == "" {
			next.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.ParseUint(req.Header.Get(hdrParent), 10, 64)
		op, _ := strconv.ParseUint(req.Header.Get(hdrOp), 10, 64)
		id := r.newID()
		ctx := context.WithValue(req.Context(), spanKey{}, spanRef{id: id, op: op})
		start := r.now()
		next.ServeHTTP(w, req.WithContext(ctx))
		r.add(span{ID: id, Parent: parent, Op: op, Layer: layer, Kind: kind, Start: start, End: r.now()})
	})
}

// tracingTransport stamps the calling span onto outbound hops: the
// gateway derives each hop's context from its inbound request, so the
// span reference the middleware stored there reaches the node.
type tracingTransport struct{ base http.RoundTripper }

func (t tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref, ok := req.Context().Value(spanKey{}).(spanRef); ok {
		req = req.Clone(req.Context())
		req.Header.Set(hdrParent, strconv.FormatUint(ref.id, 10))
		req.Header.Set(hdrOp, strconv.FormatUint(ref.op, 10))
	}
	return t.base.RoundTrip(req)
}

// covered returns how much of [start, end) the intervals cover,
// counting overlapping intervals once.
func covered(start, end int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], start), min(iv[1], end)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		if open && iv[0] <= curB {
			curB = max(curB, iv[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = iv[0], iv[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTimes returns each span's duration minus the part of it its
// direct children cover.
func selfTimes(spans []span) map[uint64]int64 {
	kids := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}
