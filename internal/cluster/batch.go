package cluster

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/repo"
	"repro/internal/server"
)

// handleBatch is the gateway's POST /tasks:batch: ops are partitioned
// by owning node, sub-batches fan out concurrently (one stream RPC per
// node instead of one request per op), and per-op results come back
// in request order. Freshly admitted blobs are then replicated
// exactly like single loads, and a get
// the routed node could not serve walks the other owners exactly
// like a single GET.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	defer g.observeOp("batch", time.Now())
	var req server.BatchRequest
	if !g.decodeBody(w, r, &req) {
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	// Enforce the node-side cap here, before partitioning: a sub-batch
	// can only be as large as the whole request, so no fan-out can trip
	// a node's wholesale 400 that would fail sibling ops too.
	if len(req.Ops) > server.MaxBatchOps {
		writeError(w, http.StatusBadRequest, "batch of %d ops exceeds limit %d", len(req.Ops), server.MaxBatchOps)
		return
	}
	g.transport.ObserveBatch(len(req.Ops))
	g.proxied.Add(1)

	results := make([]server.BatchResult, len(req.Ops))
	type sub struct {
		idx []int
		ops []server.BatchOp
	}
	subs := map[string]*sub{}
	assign := func(node string, i int, op server.BatchOp) {
		sb := subs[node]
		if sb == nil {
			sb = &sub{}
			subs[node] = sb
		}
		sb.idx = append(sb.idx, i)
		sb.ops = append(sb.ops, op)
	}
	// blobs keeps each load's decoded container for post-placement
	// replication; nodeOf records where a load was routed; gets keeps
	// each get's digest for verification and failover; unloads maps
	// result index to the gateway task whose mapping must go.
	blobs := map[int][]byte{}
	nodeOf := map[int]string{}
	gets := map[int]repo.Digest{}
	unloads := map[int]*gwTask{}
	var topo []nodeFabrics

	for i, op := range req.Ops {
		kind := op.Op
		if kind == "" && op.VBS != "" {
			kind = "load"
		}
		switch kind {
		case "load":
			data, err := base64.StdEncoding.DecodeString(op.VBS)
			if err != nil {
				results[i] = server.BatchResult{Status: http.StatusBadRequest, Error: fmt.Sprintf("bad vbs base64: %v", err)}
				continue
			}
			var target string
			if op.Fabric != nil {
				// A pinned fleet-global fabric names its node outright.
				if topo == nil {
					if topo, err = g.topology(r.Context()); err != nil {
						results[i] = server.BatchResult{Status: http.StatusServiceUnavailable, Error: err.Error()}
						continue
					}
				}
				node, local, ok := localFabric(topo, *op.Fabric)
				if !ok {
					results[i] = server.BatchResult{Status: http.StatusBadRequest, Error: fmt.Sprintf("fabric %d out of range", *op.Fabric)}
					continue
				}
				lf := local
				op.Fabric = &lf
				target = node
			} else {
				own := g.owners(repo.DigestOf(data))
				if len(own) == 0 {
					results[i] = server.BatchResult{Status: http.StatusServiceUnavailable, Error: "cluster: no node available for load"}
					continue
				}
				target = own[0]
			}
			blobs[i] = data
			nodeOf[i] = target
			assign(target, i, op)
		case "get":
			d, err := repo.ParseDigest(op.Digest)
			if err != nil {
				results[i] = server.BatchResult{Status: http.StatusBadRequest, Error: err.Error()}
				continue
			}
			own := g.owners(d)
			if len(own) == 0 {
				results[i] = server.BatchResult{Status: http.StatusServiceUnavailable, Error: "cluster: no node available for get"}
				continue
			}
			gets[i] = d
			assign(own[0], i, op)
		case "unload":
			g.mu.Lock()
			t, ok := g.tasks[op.ID]
			g.mu.Unlock()
			if !ok {
				results[i] = server.BatchResult{Status: http.StatusNotFound, Error: fmt.Sprintf("task %d not loaded", op.ID)}
				continue
			}
			unloads[i] = t
			op.ID = t.remote
			assign(t.node, i, op)
		default:
			results[i] = server.BatchResult{Status: http.StatusBadRequest, Error: fmt.Sprintf("unknown batch op %q", op.Op)}
		}
	}

	var wg sync.WaitGroup
	for node, sb := range subs {
		wg.Add(1)
		go func(node string, sb *sub) {
			defer wg.Done()
			resp, err := g.nodeBatch(r.Context(), node, server.BatchRequest{Ops: sb.ops})
			if err != nil {
				status := server.StatusCode(err)
				if status == 0 {
					// Transport failure (node down, stream cut mid-call):
					// the whole sub-batch outcome is unknown.
					status = http.StatusServiceUnavailable
				}
				for _, i := range sb.idx {
					results[i] = server.BatchResult{Status: status, Error: server.ErrorMessage(err)}
				}
				return
			}
			for k, i := range sb.idx {
				if k < len(resp.Results) {
					results[i] = resp.Results[k]
				} else {
					results[i] = server.BatchResult{Status: http.StatusBadGateway, Error: "cluster: node returned a short batch"}
				}
			}
		}(node, sb)
	}
	wg.Wait()

	if topo == nil {
		topo, _ = g.topology(r.Context())
	}
	// Post-pass per op: register placements (and translate fabric
	// indices to fleet-global), verify relayed get payloads against
	// their content address, fail unserved gets over, drop unloaded
	// task mappings, and collect each distinct freshly admitted blob
	// for replication.
	type replJob struct {
		data   []byte
		holder string
	}
	repl := map[string]replJob{}
	for i := range results {
		if t, ok := unloads[i]; ok {
			if results[i].Status == http.StatusNoContent || results[i].Status == http.StatusNotFound {
				// 404 means the node forgot the task (restart): the
				// region is free either way, so the mapping goes too.
				g.mu.Lock()
				delete(g.tasks, t.id)
				g.mu.Unlock()
			}
			continue
		}
		if d, isGet := gets[i]; isGet {
			if results[i].Status == http.StatusOK {
				data, err := base64.StdEncoding.DecodeString(results[i].VBS)
				if err == nil && repo.DigestOf(data) == d {
					continue
				}
			}
			// The routed owner missed, failed or served corrupt bytes:
			// a failover read, the same owner walk as GET /vbs/{digest}.
			data, code, msg := g.readBlob(r.Context(), d)
			if code != http.StatusOK {
				results[i] = server.BatchResult{Status: code, Error: msg}
				continue
			}
			results[i] = server.BatchResult{Status: http.StatusOK, VBS: base64.StdEncoding.EncodeToString(data)}
			continue
		}
		data, isLoad := blobs[i]
		if !isLoad || results[i].Status != http.StatusCreated || results[i].Load == nil {
			continue
		}
		lr := results[i].Load
		node := nodeOf[i]
		g.mu.Lock()
		id := g.nextID
		g.nextID++
		g.tasks[id] = &gwTask{id: id, node: node, remote: lr.ID, digest: lr.Digest}
		g.mu.Unlock()
		lr.ID = id
		if gi := globalFabric(topo, node, lr.Fabric); gi >= 0 {
			lr.Fabric = gi
		}
		if _, seen := repl[lr.Digest]; lr.Admitted && !seen {
			repl[lr.Digest] = replJob{data: data, holder: node}
		}
	}
	for _, job := range repl {
		d := repo.DigestOf(job.data)
		g.replicate(job.data, g.curRing().Lookup(d, g.replicas), job.holder)
	}
	writeJSON(w, http.StatusOK, server.BatchResponse{Results: results})
}
