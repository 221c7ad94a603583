package cluster_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/repo"
	"repro/internal/server"
)

// TestGatewayBatch drives POST /tasks:batch through the gateway: the
// batch is partitioned across owner nodes, per-op results come back
// in order with fleet-global fabric indices, and every loaded blob
// reaches its full replica set.
func TestGatewayBatch(t *testing.T) {
	c, _, nodes := newCluster(t, 3, 1, cluster.Options{Replicas: 2})

	var datas [][]byte
	var ops []server.BatchOp
	for i := 0; i < 4; i++ {
		data := makeVBS(t, int64(100+i), 6)
		datas = append(datas, data)
		ops = append(ops, server.BatchLoadOp(data))
	}
	resp, err := c.BatchCtx(t.Context(), server.BatchRequest{Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(ops) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(ops))
	}
	for i, r := range resp.Results {
		if r.Status != http.StatusCreated || r.Load == nil {
			t.Fatalf("load %d: status %d error %q", i, r.Status, r.Error)
		}
		if r.Load.Fabric < 0 || r.Load.Fabric >= 3 {
			t.Fatalf("load %d: fabric %d not fleet-global", i, r.Load.Fabric)
		}
	}

	// Replication is pipelined (asynchronous) now: poll until every
	// digest reaches its replica factor.
	for i, r := range resp.Results {
		waitReplicas(t, nodes, r.Load.Digest, 2)
		if want := repo.DigestOf(datas[i]).String(); r.Load.Digest != want {
			t.Fatalf("load %d: digest %s, want %s", i, r.Load.Digest, want)
		}
	}

	// Mixed follow-up batch: a get, a real unload, a bogus unload.
	id := resp.Results[0].Load.ID
	digest := resp.Results[0].Load.Digest
	resp, err = c.BatchCtx(t.Context(), server.BatchRequest{Ops: []server.BatchOp{
		{Op: "get", Digest: digest},
		{Op: "unload", ID: id},
		{Op: "unload", ID: 424242},
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{http.StatusOK, http.StatusNoContent, http.StatusNotFound}
	for i, r := range resp.Results {
		if r.Status != want[i] {
			t.Fatalf("op %d: status %d (error %q), want %d", i, r.Status, r.Error, want[i])
		}
	}
	got, err := base64.StdEncoding.DecodeString(resp.Results[0].VBS)
	if err != nil || !bytes.Equal(got, datas[0]) {
		t.Fatalf("batched get returned wrong bytes (err %v)", err)
	}

	// The unloaded task's gateway mapping is gone.
	tasks, err := c.TasksCtx(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	for _, ti := range tasks {
		if ti.ID == id {
			t.Fatalf("task %d still listed after batched unload", id)
		}
	}

	// An empty batch is refused as a whole.
	if _, err := c.BatchCtx(t.Context(), server.BatchRequest{}); server.StatusCode(err) != http.StatusBadRequest {
		t.Fatalf("empty batch: got %v, want 400", err)
	}
}

// TestGatewayStreamsEngage proves the data plane actually runs over
// the persistent streams: after a few loads the gateway's transport
// metrics show open streams and sent frames, and replication still
// converges with zero failures recorded.
func TestGatewayStreamsEngage(t *testing.T) {
	c, _, nodes := newCluster(t, 3, 1, cluster.Options{Replicas: 2})

	for i := 0; i < 6; i++ {
		data := makeVBS(t, int64(500+i), 6)
		resp, err := c.LoadCtx(context.Background(), data, nil, nil, nil)
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		waitReplicas(t, nodes, resp.Digest, 2)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		open := metricValue(t, c.Base(), "vbs_transport_streams_open")
		sent := metricValue(t, c.Base(), "vbs_transport_frames_sent_total")
		if open >= 1 && sent >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("streams never engaged: open=%v sent=%v", open, sent)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGatewayBatchOwnerKilled: a batch whose routed owner has died
// comes back at once, not after the hop timeout. The dead owner's
// sub-batch costs one refused dial; its get fails over to the
// surviving owner and its load answers 503. Probing is off so the
// gateway still routes to the dead node.
func TestGatewayBatchOwnerKilled(t *testing.T) {
	c, gw, nodes := newCluster(t, 3, 1, cluster.Options{
		Replicas: 2, HopTimeout: 15 * time.Second, ProbeInterval: time.Hour,
	})
	data := makeVBS(t, 71, 6)
	put, err := c.PutVBS(t.Context(), data)
	if err != nil {
		t.Fatal(err)
	}
	primary := gw.Ring().Owner(repo.DigestOf(data))
	var load []byte
	for seed := int64(72); load == nil; seed++ {
		if d := makeVBS(t, seed, 6); gw.Ring().Owner(repo.DigestOf(d)) == primary {
			load = d
		}
	}
	for _, n := range nodes {
		if n.url == primary {
			n.kill()
		}
	}

	begin := time.Now()
	resp, err := c.BatchCtx(t.Context(), server.BatchRequest{Ops: []server.BatchOp{
		{Op: "get", Digest: put.Digest}, server.BatchLoadOp(load),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(begin); took > 2*time.Second {
		t.Fatalf("batch to a dead owner took %v, want well under the 15s hop timeout", took)
	}
	if r := resp.Results[0]; r.Status != http.StatusOK {
		t.Fatalf("get: status %d (%s), want 200 through failover", r.Status, r.Error)
	} else if got, err := base64.StdEncoding.DecodeString(r.VBS); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get served different bytes (err %v)", err)
	}
	if r := resp.Results[1]; r.Status != http.StatusServiceUnavailable {
		t.Fatalf("load to the dead owner: status %d (%s), want 503", r.Status, r.Error)
	}
}

// waitReplicas polls until the digest is held by at least want nodes.
func waitReplicas(t *testing.T, nodes []*testNode, digest string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(nodesHolding(t, nodes, digest)) >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("digest %s never reached %d replicas (on %v)",
				digest, want, nodesHolding(t, nodes, digest))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// metricValue scrapes one untyped metric value off GET /metrics.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
				t.Fatalf("parse %s: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// TestGatewayBatchGetFailsOver: a batched get whose routed owner lost
// the blob walks the other owners like a single GET does, returning
// 200 with byte-identical data, and heals the lost copy.
func TestGatewayBatchGetFailsOver(t *testing.T) {
	c, gw, nodes := newCluster(t, 3, 1, cluster.Options{Replicas: 2})
	data := makeVBS(t, 61, 6)
	put, err := c.PutVBS(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	primary := gw.Ring().Owner(repo.DigestOf(data))
	for _, n := range nodes {
		if n.url == primary {
			if err := n.client.DeleteVBSCtx(t.Context(), put.Digest); err != nil {
				t.Fatalf("node-local delete: %v", err)
			}
		}
	}

	resp, err := c.BatchCtx(t.Context(), server.BatchRequest{Ops: []server.BatchOp{{Op: "get", Digest: put.Digest}}})
	if err != nil {
		t.Fatal(err)
	}
	r := resp.Results[0]
	if r.Status != http.StatusOK {
		t.Fatalf("batched get after primary loss: status %d (%s), want 200", r.Status, r.Error)
	}
	if got, err := base64.StdEncoding.DecodeString(r.VBS); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("batched get served different bytes (err %v)", err)
	}
	waitReplicas(t, nodes, put.Digest, 2)
}
