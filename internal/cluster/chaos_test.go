package cluster_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/repo"
	"repro/internal/server"
)

// TestGatewayAllReplicasDown503: when every backend is gone, blob
// reads and loads must fail fast with a clear 503 — not a generic 502
// and never a hang. Regression for the chaos nodekill worst case.
func TestGatewayAllReplicasDown503(t *testing.T) {
	cl, _, nodes := newCluster(t, 3, 1, cluster.Options{Replicas: 2})
	data := makeVBS(t, 71, 10)
	put, err := cl.PutVBS(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		n.kill()
	}

	_, err = cl.GetVBSCtx(t.Context(), put.Digest)
	if code := server.StatusCode(err); code != 503 {
		t.Fatalf("GetVBS with all nodes down: %v (code %d), want 503", err, code)
	}
	if msg := server.ErrorMessage(err); !strings.Contains(msg, "no replica") {
		t.Fatalf("GetVBS 503 message not diagnostic: %q", msg)
	}

	_, err = cl.LoadCtx(t.Context(), data, nil, nil, nil)
	if code := server.StatusCode(err); code != 503 {
		t.Fatalf("Load with all nodes down: %v (code %d), want 503", err, code)
	}
}

// TestGatewayReadRepairConvergence pins the read half of the
// invariant the nodekill chaos recipe checks, property-style: when
// the primary loses a blob, gateway reads fail over to a secondary,
// and that failover read's owner verification brings the replica
// count back to R. Secondary loss is the rebalancer's to heal (see
// TestGatewayRebalanceHealsSecondaryLoss).
func TestGatewayReadRepairConvergence(t *testing.T) {
	const replicas = 2
	cl, gw, nodes := newCluster(t, 3, 1, cluster.Options{Replicas: replicas})
	byURL := make(map[string]*testNode, len(nodes))
	for _, n := range nodes {
		byURL[n.url] = n
	}

	for round := 0; round < replicas; round++ {
		data := makeVBS(t, int64(100+round), 10)
		put, err := cl.PutVBS(context.Background(), data)
		if err != nil {
			t.Fatal(err)
		}
		if h := nodesHolding(t, nodes, put.Digest); len(h) != replicas {
			t.Fatalf("round %d: blob on %d node(s) after put, want %d", round, len(h), replicas)
		}

		// Delete the blob from its primary directly (the node's own
		// API, behind the gateway's back) — replica loss in miniature.
		primary := gw.Ring().Owner(repo.DigestOf(data))
		if err := byURL[primary].client.DeleteVBSCtx(t.Context(), put.Digest); err != nil {
			t.Fatalf("round %d: node-local delete: %v", round, err)
		}
		if h := nodesHolding(t, nodes, put.Digest); len(h) != replicas-1 {
			t.Fatalf("round %d: blob on %d node(s) after delete, want %d", round, len(h), replicas-1)
		}

		// Gateway reads must serve byte-identical data and converge
		// the replica set back to R. The repair is asynchronous, so
		// poll with a deadline.
		deadline := time.Now().Add(10 * time.Second)
		for {
			got, err := cl.GetVBSCtx(t.Context(), put.Digest)
			if err != nil {
				t.Fatalf("round %d: GetVBS during repair: %v", round, err)
			}
			if string(got) != string(data) {
				t.Fatalf("round %d: gateway served %d bytes, want %d byte-identical", round, len(got), len(data))
			}
			if len(nodesHolding(t, nodes, put.Digest)) == replicas {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: replica count did not converge to %d; holders=%v",
					round, replicas, nodesHolding(t, nodes, put.Digest))
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// The sweeps that found nothing missing must not count as repairs.
	st := gatewayStats(t, cl)
	if st.Cluster.ReadRepairs < replicas {
		t.Fatalf("read_repairs = %d, want >= %d", st.Cluster.ReadRepairs, replicas)
	}
	if st.Cluster.RepairChecks < st.Cluster.ReadRepairs {
		t.Fatalf("repair_checks (%d) < read_repairs (%d)", st.Cluster.RepairChecks, st.Cluster.ReadRepairs)
	}
}

// TestGatewayRebalanceHealsSecondaryLoss: a secondary that loses a
// replica behind a healthy primary is healed by a rebalance pass, not
// by reads — reads the primary serves cost no owner verification.
// The pass comes from an explicit kick, or from the secondary's
// Down-to-Alive transition after it missed a copy while down.
func TestGatewayRebalanceHealsSecondaryLoss(t *testing.T) {
	const replicas = 2

	t.Run("kick", func(t *testing.T) {
		cl, gw, nodes := newCluster(t, 3, 1, cluster.Options{Replicas: replicas})
		data := makeVBS(t, 110, 10)
		put, err := cl.PutVBS(context.Background(), data)
		if err != nil {
			t.Fatal(err)
		}
		secondary := gw.Ring().Lookup(repo.DigestOf(data), replicas)[1]
		for _, n := range nodes {
			if n.url == secondary {
				if err := n.client.DeleteVBSCtx(t.Context(), put.Digest); err != nil {
					t.Fatalf("node-local delete: %v", err)
				}
			}
		}
		before := gatewayStats(t, cl).Cluster.RepairChecks
		for i := 0; i < 5; i++ {
			got, err := cl.GetVBSCtx(t.Context(), put.Digest)
			if err != nil || string(got) != string(data) {
				t.Fatalf("read %d: %d bytes, err %v; want %d byte-identical", i, len(got), err, len(data))
			}
		}
		if after := gatewayStats(t, cl).Cluster.RepairChecks; after != before {
			t.Fatalf("primary-served reads ran %d repair check(s)", after-before)
		}
		if h := nodesHolding(t, nodes, put.Digest); len(h) != replicas-1 {
			t.Fatalf("blob on %d node(s) before the kick, want %d (reads must not heal)", len(h), replicas-1)
		}

		gw.Rebalancer().Kick()
		waitHolders(t, nodes, put.Digest, replicas, 10*time.Second)
	})

	t.Run("revival", func(t *testing.T) {
		// No probe loop: only the reports below move the secondary's
		// health, so the revival is the one transition that can kick.
		cl, gw, nodes := newCluster(t, 3, 1, cluster.Options{Replicas: replicas, ProbeInterval: time.Hour})
		data := makeVBS(t, 111, 10)
		d := repo.DigestOf(data)
		secondary := gw.Ring().Lookup(d, replicas)[1]
		// Learn the fabric topology first: a load fetches it from any
		// node not yet counted, and that answer would revive the node.
		if _, err := cl.FabricsCtx(t.Context()); err != nil {
			t.Fatal(err)
		}
		down := errors.New("connection refused")
		gw.Registry().ReportFailure(secondary, down)
		gw.Registry().ReportFailure(secondary, down)
		if got := gw.Registry().State(secondary); got != cluster.Down {
			t.Fatalf("secondary state %v, want down", got)
		}

		// A fresh load while the secondary is down: the copy to it is
		// skipped, so the set stays degraded until a rebalance pass.
		lr, err := cl.LoadCtx(t.Context(), data, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !lr.Admitted {
			t.Fatal("first load of a fresh blob not reported as admitted")
		}
		if h := nodesHolding(t, nodes, lr.Digest); len(h) != replicas-1 {
			t.Fatalf("blob on %d node(s) with the secondary down, want %d", len(h), replicas-1)
		}

		passes := gw.Rebalancer().Stats().Passes
		gw.Registry().ReportSuccess(secondary)
		waitHolders(t, nodes, lr.Digest, replicas, 10*time.Second)
		if got := gw.Rebalancer().Stats().Passes; got <= passes {
			t.Fatalf("rebalance passes %d after the revival, want > %d", got, passes)
		}
		got, err := cl.GetVBSCtx(t.Context(), lr.Digest)
		if err != nil || string(got) != string(data) {
			t.Fatalf("read after heal: %d bytes, err %v; want %d byte-identical", len(got), err, len(data))
		}
	})
}

// waitHolders polls until exactly want nodes hold the digest.
func waitHolders(t *testing.T, nodes []*testNode, digest string, want int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for len(nodesHolding(t, nodes, digest)) != want {
		if time.Now().After(deadline) {
			t.Fatalf("replica count did not converge to %d; holders=%v", want, nodesHolding(t, nodes, digest))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// gatewayStats reads the gateway's /stats.
func gatewayStats(t *testing.T, cl *server.Client) cluster.StatsResponse {
	t.Helper()
	var st cluster.StatsResponse
	if _, err := getJSON(cl, "/stats", &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestGatewayRepairDoesNotResurrectDeleted: a gateway DELETE followed
// by reads of other blobs must not re-replicate the deleted digest
// (the repair sweep anchor-checks the serving node).
func TestGatewayRepairDoesNotResurrectDeleted(t *testing.T) {
	cl, gw, nodes := newCluster(t, 3, 1, cluster.Options{Replicas: 2})
	data := makeVBS(t, 131, 10)
	put, err := cl.PutVBS(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	// Reads before the delete may schedule sweeps; let them drain via
	// Stop at cleanup. Delete through the gateway: every node drops it.
	if _, err := cl.GetVBSCtx(t.Context(), put.Digest); err != nil {
		t.Fatal(err)
	}
	if err := cl.DeleteVBSCtx(t.Context(), put.Digest); err != nil {
		t.Fatalf("gateway delete: %v", err)
	}
	gw.Stop() // drain any in-flight sweep before checking
	if h := nodesHolding(t, nodes, put.Digest); len(h) != 0 {
		t.Fatalf("deleted blob resurrected on %v", h)
	}
}
