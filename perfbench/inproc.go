package main

import (
	"context"
	"net"
	"net/http"
	"time"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/fabric"
	"repro/internal/server"
)

// startTraced builds the workload's daemons in this process with
// server.New / cluster.New, using the options vbsd and vbsgw derive
// from the same flags startTopology passes, and wraps every handler in
// the span middleware. The gateway's node hops go through a
// tracingTransport so node spans name the gateway span that caused
// them.
func startTraced(hc *http.Client, w *workload, in *inputs, rec *recorder, dataDirs []string) (*topology, time.Duration, error) {
	begin := time.Now()
	var servers []*http.Server
	var nodes []*server.Server
	var gw *cluster.Gateway
	t := &topology{}
	t.stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if len(servers) > len(nodes) {
			_ = servers[len(servers)-1].Shutdown(ctx)
		}
		if gw != nil {
			gw.Stop()
		}
		for i, s := range nodes {
			_ = servers[i].Shutdown(ctx)
			_ = s.Jobs().Shutdown(ctx)
			_ = s.Flush()
		}
	}
	serve := func(layer string, h http.Handler) (string, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		hs := &http.Server{Handler: rec.middleware(layer, h), ReadHeaderTimeout: 10 * time.Second}
		servers = append(servers, hs)
		go func() { _ = hs.Serve(l) }()
		return "http://" + l.Addr().String(), nil
	}
	fail := func(err error) (*topology, time.Duration, error) {
		t.stop()
		return nil, 0, err
	}
	if !w.fleet {
		dataDirs = []string{""}
	}
	var urls []string
	for _, dd := range dataDirs {
		srv, err := newNode(w, dd)
		if err != nil {
			return fail(err)
		}
		nodes = append(nodes, srv)
		u, err := serve("server", srv.Handler())
		if err != nil {
			return fail(err)
		}
		urls = append(urls, u)
	}
	if !w.fleet {
		t.base, t.daemons = urls[0], urls
		return t, time.Since(begin), waitHealthy(hc, urls[0], begin.Add(readyTimeout), nil, nil)
	}
	g, err := cluster.New(urls, cluster.Options{
		Replicas:   2,
		HTTPClient: &http.Client{Transport: tracingTransport{base: http.DefaultTransport}},
	})
	if err != nil {
		return fail(err)
	}
	gw = g
	gw.Start(context.Background())
	u, err := serve("cluster", gw.Handler())
	if err != nil {
		return fail(err)
	}
	t.base, t.daemons = u, append([]string{u}, urls...)
	if err := fleetReady(hc, u, len(urls), in, begin.Add(readyTimeout), nil); err != nil {
		return fail(err)
	}
	return t, time.Since(begin), nil
}

// newNode is vbsd's start-up with nodeArgs' flags: 2×64×64 fabrics at
// W=benchW, K=benchK, vbsd's default store bound and the workload's
// cache size.
func newNode(w *workload, dataDir string) (*server.Server, error) {
	p := arch.Params{W: benchW, K: benchK}
	ctrls := make([]*controller.Controller, 2)
	for i := range ctrls {
		f, err := fabric.New(p, arch.Grid{Width: 64, Height: 64})
		if err != nil {
			return nil, err
		}
		ctrls[i] = controller.New(f, 0)
	}
	mbits := w.cacheMbits
	if mbits == 0 {
		mbits = 64 // vbsd -cache-mbits default
	}
	return server.New(ctrls, server.Options{
		CacheBits:  mbits * 1_000_000,
		StoreBytes: 256 * 1_000_000, // vbsd -store-mbytes default
		DataDir:    dataDir,
	})
}
