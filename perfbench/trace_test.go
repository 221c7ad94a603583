package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

func TestCoveredCountsOverlapOnce(t *testing.T) {
	ivs := [][2]int64{
		{10, 30}, {20, 40}, // overlap: 10..40 covers 30
		{35, 38},   // nested in the union: adds nothing
		{50, 60},   // disjoint: 10
		{90, 120},  // sticks out of the parent: clipped to 10
		{200, 300}, // outside the parent entirely
	}
	if got := covered(0, 100, ivs); got != 50 {
		t.Errorf("covered = %d, want 50", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Errorf("covered with no children = %d", got)
	}
}

func TestSelfTimesSubtractOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "cluster", Start: 10, End: 90},
		// Two concurrent node hops of the gateway span (a fan-out).
		{ID: 3, Parent: 2, Layer: "server", Start: 20, End: 50},
		{ID: 4, Parent: 2, Layer: "server", Start: 30, End: 70},
		// A grandchild must not be subtracted from the client span.
		{ID: 5, Parent: 4, Layer: "server", Start: 40, End: 45},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 20, 2: 30, 3: 30, 4: 35, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
}

// TestSpanPropagationAcrossHop checks the chain client → gateway span
// → outbound hop → node span: the node span's parent is the gateway
// span and both carry the client's op id.
func TestSpanPropagationAcrossHop(t *testing.T) {
	rec := newRecorder()
	node := httptest.NewServer(rec.middleware("server", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})))
	defer node.Close()
	hop := &http.Client{Transport: tracingTransport{base: http.DefaultTransport}}
	gw := httptest.NewServer(rec.middleware("cluster", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := http.NewRequestWithContext(r.Context(), http.MethodDelete, node.URL+"/tasks/1", nil)
		resp, err := hop.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		w.WriteHeader(http.StatusNoContent)
	})))
	defer gw.Close()

	req, _ := http.NewRequest(http.MethodDelete, gw.URL+"/tasks/7", nil)
	req.Header.Set(hdrOp, "42")
	req.Header.Set(hdrParent, strconv.Itoa(1000))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var gSpan, nSpan span
	for _, s := range rec.all() {
		switch s.Layer {
		case "cluster":
			gSpan = s
		case "server":
			nSpan = s
		}
	}
	if gSpan.Op != 42 || gSpan.Parent != 1000 || gSpan.Kind != "unload" {
		t.Errorf("gateway span = %+v", gSpan)
	}
	if nSpan.Op != 42 || nSpan.Parent != gSpan.ID || nSpan.Kind != "unload" {
		t.Errorf("node span = %+v, want parent %d and op 42", nSpan, gSpan.ID)
	}
	if nSpan.Start < gSpan.Start || nSpan.End > gSpan.End {
		t.Errorf("node span %+v not inside gateway span %+v", nSpan, gSpan)
	}
}
