package main

import (
	"fmt"
	"time"
)

// selfRow is one op kind's p50 self time per layer in the traced run.
type selfRow struct {
	Client  float64 `json:"client"`
	Cluster float64 `json:"cluster,omitempty"`
	Server  float64 `json:"server"`
	Ops     int     `json:"ops"`
}

// fillLayers records the per-layer metrics: counter deltas from the
// untraced run, spans from the traced run, timings from the replay.
func (r *report) fillLayers(w *workload, un, tr *runOutcome, rp *replayResult) {
	m := map[string]metric{}
	notes := map[string]string{}
	st := un.st
	d, gd := un.all, un.gw
	okOps := float64(st.succeededOps())
	gets := float64(st.ops[kGet].Succeeded)
	loads := float64(st.ops[kLoad].Succeeded)
	puts := float64(st.ops[kPut].Succeeded)
	setRatio := func(name string, q ratio) {
		m[name] = metric{Value: q.Value, Unit: "ratio", Base: fmt.Sprintf("%g / %g %s", q.Num, q.Den, q.Base)}
	}
	count := func(name string, v float64) { m[name] = metric{Value: v, Unit: "count"} }

	checks := gd["vbs_gateway_repair_checks_total"]
	copies := gd["vbs_gateway_replicated_total"]
	writes := d["vbs_repo_writes_total"]
	setRatio("cluster.repair_checks_per_get", newRatio(checks, gets, "repair checks / gets"))
	setRatio("cluster.read_repair_yield", newRatio(gd["vbs_gateway_read_repairs_total"], checks, "read repairs / repair checks"))
	setRatio("cluster.copies_per_load", newRatio(copies, loads, "replica copies / loads"))
	// Every disk write not caused by a put (R=2: two writes per put)
	// stored a blob a replica copy brought in.
	setRatio("cluster.copy_yield", newRatio(max(writes-2*puts, 0), copies, "copies storing a new blob / copies sent"))
	count("cluster.failovers", gd["vbs_gateway_failovers_total"])
	count("cluster.retries", gd["vbs_gateway_retries_total"])

	setRatio("transport.frames_per_op", newRatio(d["vbs_transport_frames_sent_total"], okOps, "frames sent, all daemons / ops"))
	m["transport.bytes_per_op"] = metric{Value: newRatio(d["vbs_transport_bytes_sent_total"], okOps, "").Value, Unit: "B",
		Base: fmt.Sprintf("%g wire bytes sent, all daemons / %g ops", d["vbs_transport_bytes_sent_total"], okOps)}
	count("transport.reconnects", d["vbs_transport_reconnects_total"])
	count("transport.batch_observations", d["vbs_transport_batch_tasks_count"])

	meanMS := func(op string) metric {
		sum := d[seriesKey("vbs_server_op_duration_seconds_sum", map[string]string{"op": op})]
		n := d[seriesKey("vbs_server_op_duration_seconds_count", map[string]string{"op": op})]
		return metric{Value: newRatio(sum*1000, n, "").Value, Unit: "ms", Samples: int(n)}
	}
	m["server.load_mean_ms"] = meanMS("load")
	m["server.get_mean_ms"] = meanMS("vbs_get")
	hits, misses := d["vbs_cache_hits_total"], d["vbs_cache_misses_total"]
	setRatio("server.decode_cache_hit_ratio", newRatio(hits, hits+misses, "decoded-cache hits / lookups"))
	count("devirt.decodes", d["vbs_decode_total"])
	m["devirt.decode_busy_s"] = metric{Value: d["vbs_decode_duration_seconds_sum"], Unit: "s"}
	count("controller.compactions", d["vbs_compactions_total"])
	count("controller.load_retries", d["vbs_load_retries_total"])
	count("repo.writes", writes)
	count("repo.reads", d["vbs_repo_reads_total"])

	for name, s := range rp.stages {
		m[name] = metric{Value: s.median(), Unit: s.unit, Samples: len(s.samples)}
	}
	par, ser := rp.stages["devirt.decode_ms"].median(), rp.stages["devirt.decode_serial_ms"].median()
	setRatio("devirt.parallel_speedup", newRatio(ser, par, "serial decode p50 / parallel decode p50, ms"))

	r.spanMetrics(m, notes, tr)
	untracedTP := okOps / st.wall.Seconds()
	tracedTP := float64(tr.st.succeededOps()) / tr.st.wall.Seconds()
	setRatio("trace.throughput_ratio", newRatio(tracedTP, untracedTP, "traced / untraced throughput_ops_s"))
	if !w.fleet {
		notes["cluster.*"] = "no gateway on this workload: cluster metrics are 0"
	}
	notes["server.handler_ms.batch"] = "not measured: the gateway sends node batches over its stream, inside one long-lived GET /stream request the middleware cannot split"
	notes["trace.throughput_ratio"] = "traced daemons run in the benchmark's process, so the ratio includes that as well as span recording"
	r.PerLayer, r.NotMeasure = m, notes
	r.Problems = append(r.Problems, rp.problems...)
	tfailed := tr.st.failed()
	if tfailed > 0 {
		r.Failures = append(r.Failures, tr.st.errs...)
		r.failed += tfailed
	}
	r.attempted += tr.st.attempted()
}

// spanMetrics derives the span-based metrics from the traced run's
// timed window: gateway self time per op kind, node handler time per
// op kind, each layer's self time per client op kind, and the share of
// client latency no daemon span covers.
func (r *report) spanMetrics(m map[string]metric, notes map[string]string, tr *runOutcome) {
	self := selfTimes(tr.spans)
	ms := func(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }
	inWindow := map[uint64]string{} // op id → client op kind
	for _, s := range tr.spans {
		if s.Layer == "client" && s.Start >= tr.window[0] && s.Start < tr.window[1] {
			inWindow[s.Op] = s.Kind
		}
	}
	hop := map[string][]float64{}
	handler := map[string][]float64{}
	type perOp struct{ client, cluster, server int64 }
	ops := map[uint64]*perOp{}
	var clientSelf, clientDur int64
	for _, s := range tr.spans {
		kind, ok := inWindow[s.Op]
		if !ok || s.Op == 0 {
			continue
		}
		p := ops[s.Op]
		if p == nil {
			p = &perOp{}
			ops[s.Op] = p
		}
		switch s.Layer {
		case "client":
			p.client += self[s.ID]
			clientSelf += self[s.ID]
			clientDur += s.dur()
		case "cluster":
			p.cluster += self[s.ID]
			if s.Kind == kind {
				hop[kind] = append(hop[kind], ms(self[s.ID]))
			}
		case "server":
			p.server += self[s.ID]
			handler[s.Kind] = append(handler[s.Kind], ms(s.dur()))
		}
	}
	for _, k := range []string{"load", "get", "put", "unload"} {
		m["cluster.hop_self_ms."+k] = metric{Value: median(hop[k]), Unit: "ms", Samples: len(hop[k])}
		m["server.handler_ms."+k] = metric{Value: median(handler[k]), Unit: "ms", Samples: len(handler[k])}
		if len(handler[k]) == 0 {
			notes["server.handler_ms."+k] = "no " + k + " requests reached a node handler in this workload"
		}
	}
	rows := map[string][3][]float64{}
	for id, p := range ops {
		kind := inWindow[id]
		row := rows[kind]
		row[0] = append(row[0], ms(p.client))
		row[1] = append(row[1], ms(p.cluster))
		row[2] = append(row[2], ms(p.server))
		rows[kind] = row
	}
	r.SelfTime = map[string]selfRow{}
	for kind, row := range rows {
		r.SelfTime[kind] = selfRow{Client: median(row[0]), Cluster: median(row[1]), Server: median(row[2]), Ops: len(row[0])}
	}
	q := newRatio(float64(clientSelf), float64(clientDur), "client time outside every daemon span / client time, ns")
	m["trace.uncovered_share"] = metric{Value: q.Value, Unit: "ratio", Base: fmt.Sprintf("%g / %g %s", q.Num, q.Den, q.Base)}
}

// designChecks confirms, from the per-layer numbers, that the
// workload exercises the layers it was designed to: the decoded cache
// serves the fleets' hot set and mostly misses on node-cold, only
// fleets touch the disk tier and streams, puts reach both replicas'
// disks, and only fleet-batch sends batches.
func designChecks(w *workload, r *report) map[string]bool {
	v := func(name string) float64 { return r.PerLayer[name].Value }
	puts := float64(r.Ops[kPut.String()].Succeeded)
	c := map[string]bool{}
	if w.fleet {
		c["server.decode_cache_hit_ratio >= 0.99"] = v("server.decode_cache_hit_ratio") >= 0.99
	} else {
		c["server.decode_cache_hit_ratio < 0.5"] = v("server.decode_cache_hit_ratio") < 0.5
	}
	if w.name == "fleet-rw" {
		c["repo.writes >= 2 x puts"] = puts > 0 && v("repo.writes") >= 2*puts
	}
	if !w.fleet {
		c["repo.writes == 0"] = v("repo.writes") == 0
		c["transport.frames_per_op == 0"] = v("transport.frames_per_op") == 0
	}
	if w.name == "fleet-batch" {
		c["transport.batch_observations > 0"] = v("transport.batch_observations") > 0
	} else {
		c["transport.batch_observations == 0"] = v("transport.batch_observations") == 0
	}
	return c
}
