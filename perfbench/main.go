// Command perfbench is the repository's serving benchmark. It starts a
// workload's daemons (vbsd, and for fleets vbsgw over two vbsd nodes)
// as real processes, drives them from a closed loop of two clients for
// a fixed time, checks every reply, and prints the end-to-end metrics.
// With --trace 1 it splits the time between that run and one against
// in-process daemons wrapped in span middleware, replays the run's
// inputs through each layer's exported functions, and prints
// per-layer metrics instead.
//
//	bash perfbench/run.sh --workload fleet-rw --seed 1 --seconds 35 --trace 0
//
// run.sh builds the binaries from the checkout and calls this program
// with --bin. The last line of standard output is the result object;
// the lines before it are the full report (every metric with its unit
// and sample count, per-op counts, provenance). See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its daemons up; setup_s is
// the median, and the last set-up carries the traffic.
const setupReps = 9

type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Base    string  `json:"base,omitempty"`
}

type named struct{ name, unit string }

// gatedE2E are the end-to-end metrics of BENCHMARK.json: defined on
// every workload, never zero. The other end-to-end metrics are printed
// in the report wherever they apply.
var gatedE2E = []named{
	{"throughput_ops_s", "ops/s"},
	{"kind_p50_ms", "ms"},
	{"setup_s", "s"},
	{"rss_mb", "MB"},
}

// layerMetrics are the per-layer metrics of BENCHMARK.json, reported by
// every --trace 1 run (0 where the layer does no such work).
var layerMetrics = []named{
	{"cluster.hop_self_ms.load", "ms"},
	{"cluster.hop_self_ms.get", "ms"},
	{"cluster.hop_self_ms.put", "ms"},
	{"cluster.hop_self_ms.unload", "ms"},
	{"cluster.repair_checks_per_get", "ratio"},
	{"cluster.read_repair_yield", "ratio"},
	{"cluster.copies_per_load", "ratio"},
	{"cluster.copy_yield", "ratio"},
	{"cluster.failovers", "count"},
	{"cluster.retries", "count"},
	{"transport.call_rtt_us", "us"},
	{"transport.frame_codec_us", "us"},
	{"transport.frames_per_op", "ratio"},
	{"transport.bytes_per_op", "B"},
	{"transport.reconnects", "count"},
	{"transport.batch_observations", "count"},
	{"server.handler_ms.load", "ms"},
	{"server.handler_ms.get", "ms"},
	{"server.handler_ms.unload", "ms"},
	{"server.handler_ms.put", "ms"},
	{"server.load_mean_ms", "ms"},
	{"server.get_mean_ms", "ms"},
	{"server.body_decode_us", "us"},
	{"server.decode_cache_hit_ratio", "ratio"},
	{"store.sha256_us", "us"},
	{"store.put_hit_us", "us"},
	{"store.put_fresh_us", "us"},
	{"core.parse_us", "us"},
	{"core.warm_us", "us"},
	{"devirt.decode_ms", "ms"},
	{"devirt.decode_serial_ms", "ms"},
	{"devirt.parallel_speedup", "ratio"},
	{"devirt.decodes", "count"},
	{"devirt.decode_busy_s", "s"},
	{"controller.place_us", "us"},
	{"controller.unload_us", "us"},
	{"controller.compactions", "count"},
	{"controller.load_retries", "count"},
	{"repo.put_ms", "ms"},
	{"repo.get_us", "us"},
	{"repo.writes", "count"},
	{"repo.reads", "count"},
	{"repo.open_s", "s"},
	{"trace.uncovered_share", "ratio"},
	{"trace.throughput_ratio", "ratio"},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string
	work     string
	root     string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: node-cold, fleet-rw, fleet-batch")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 35, "measured time in seconds (with --trace 1, half untraced and half traced)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics instead of end-to-end")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the vbsd and vbsgw binaries")
	flag.StringVar(&o.work, "work", ".bench_build/work", "scratch directory for data dirs and daemon logs")
	flag.StringVar(&o.root, "root", ".", "repository root (for provenance)")
	smokeRun := flag.Bool("smoke", false, "run every workload traced, 1 second untraced and 1 traced, and check outputs and design (ignores --workload, --seconds, --trace)")
	flag.Parse()
	if *smokeRun {
		if err := smoke(o, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	// An interrupted run still stops the daemons it started.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sig
		fmt.Fprintln(os.Stderr, "perfbench: stopped by", s)
		killRunning()
		os.Exit(1)
	}()
	rep, err := run(o)
	if err == nil {
		err = writeJSON(os.Stdout, rep, "  ")
	}
	if err == nil {
		err = writeJSON(os.Stdout, rep.result(), "")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// writeJSON prints v as JSON without HTML escaping (the report quotes
// checks like "ratio >= 0.99"), indented unless indent is empty.
func writeJSON(w io.Writer, v any, indent string) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", indent)
	return enc.Encode(v)
}

// smoke runs every workload with tracing on, for one second untraced
// and one traced, and fails unless each run is correct and its
// per-layer numbers confirm the workload design. It prints one summary
// line per workload.
func smoke(o options, out io.Writer) error {
	o.seconds, o.trace = 2, true
	var bad []string
	for _, w := range workloads {
		o.workload = w.name
		rep, err := run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := writeJSON(out, struct {
			Workload string          `json:"workload"`
			Design   map[string]bool `json:"design_checks"`
			Result   any             `json:"result"`
		}{w.name, rep.Design, rep.result()}, ""); err != nil {
			return err
		}
		if rep.failed != 0 || len(rep.Problems) != 0 {
			bad = append(bad, fmt.Sprintf("%s: %d failed ops %v, replay problems %v", w.name, rep.failed, rep.Failures, rep.Problems))
		}
		for check, ok := range rep.Design {
			if !ok {
				bad = append(bad, fmt.Sprintf("%s: design check %q failed", w.name, check))
			}
		}
	}
	if len(bad) > 0 {
		return errors.New(strings.Join(bad, "; "))
	}
	return nil
}

// report is the full output of one run.
type report struct {
	Workload   string             `json:"workload"`
	Why        string             `json:"why"`
	Seconds    float64            `json:"seconds"`
	Clients    int                `json:"clients"`
	Provenance provenance         `json:"provenance"`
	Ops        map[string]tally   `json:"ops"`
	Requests   map[string]tally   `json:"requests"`
	Other      tally              `json:"untimed_ops_and_checks"`
	EndToEnd   map[string]metric  `json:"end_to_end"`
	NotApplied map[string]string  `json:"end_to_end_not_applicable,omitempty"`
	PerLayer   map[string]metric  `json:"per_layer,omitempty"`
	NotMeasure map[string]string  `json:"per_layer_notes,omitempty"`
	SelfTime   map[string]selfRow `json:"self_time_p50_ms,omitempty"`
	SetupRuns  []float64          `json:"setup_wall_s"`
	SetupSteal []float64          `json:"setup_steal"`
	PerSecond  []float64          `json:"raw_ops_per_second"`
	Steal      []float64          `json:"steal_per_second"`
	Failures   []string           `json:"failures,omitempty"`
	Problems   []string           `json:"replay_problems,omitempty"`
	Counters   map[string]float64 `json:"counter_deltas,omitempty"`
	Design     map[string]bool    `json:"design_checks,omitempty"`

	trace     bool
	attempted int
	failed    int
}

// result is the last line: correctness, op counts and the gated
// metrics (end-to-end untraced, per-layer traced).
func (r *report) result() any {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	src, names := r.EndToEnd, gatedE2E
	if r.trace {
		src, names = r.PerLayer, layerMetrics
	}
	correct := r.failed == 0 && len(r.Problems) == 0
	for _, n := range names {
		m, ok := src[n.name]
		correct = correct && ok
		ms[n.name] = val{Value: m.Value, Unit: n.unit}
	}
	return struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{
		Correct:   correct,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   ms,
	}
}

func run(o options) (_ *report, err error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	// A traced run spends half its time untraced (the base of the
	// counter deltas and of the tracing overhead) and half traced.
	if o.trace {
		o.seconds /= 2
	}
	for _, b := range []string{"vbsd", "vbsgw"} {
		if _, err := os.Stat(filepath.Join(o.bin, b)); err != nil {
			return nil, fmt.Errorf("daemon binary missing (build with run.sh): %w", err)
		}
	}
	rep := &report{
		Workload: w.name, Why: w.why, Seconds: o.seconds, Clients: clients,
		Provenance: newProvenance(o.root, o.seed), trace: o.trace,
		NotApplied: map[string]string{},
	}
	in, err := w.inputs(o.seed)
	if err != nil {
		return nil, err
	}
	if in.puts != nil {
		// About what an unmodified tree puts in the window; more are
		// made on demand.
		if err := in.puts.prepare(int(o.seconds * 150)); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.work, w.name+"-")
	if err != nil {
		return nil, err
	}
	// A failed run keeps its daemon logs for inspection.
	defer func() {
		if err == nil {
			err = os.RemoveAll(dir)
		} else {
			err = fmt.Errorf("%w (logs and data dirs kept in %s)", err, dir)
		}
	}()
	template := ""
	if w.fleet {
		template = filepath.Join(dir, "seeded")
		if err := seedTemplate(template, in.seeded); err != nil {
			return nil, err
		}
	}

	un, err := untraced(o, w, in, dir, template)
	if err != nil {
		return nil, err
	}
	rep.fill(un)
	if !o.trace {
		return rep, nil
	}
	tr, err := traced(o, w, in, dir, template)
	if err != nil {
		return nil, err
	}
	rp, err := replay(in, dir, template)
	if err != nil {
		return nil, err
	}
	rep.fillLayers(w, un, tr, rp)
	rep.Design = designChecks(w, rep)
	return rep, nil
}

// runOutcome is one driven run: client observations plus the counter
// deltas over its timed window.
type runOutcome struct {
	st      *runStats
	all, gw counters  // deltas: every daemon summed, the gateway alone
	setups  []float64 // wall seconds per set-up
	// setupSteal is the machine's steal share during each set-up.
	setupSteal []float64
	// rssMB is the daemons' summed VmHWM when the timed window starts,
	// rssEndMB after the drain.
	rssMB, rssEndMB float64
	spans           []span
	window          [2]int64 // traced timed window on the recorder clock
}

func benchClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients, IdleConnTimeout: time.Minute},
		Timeout:   60 * time.Second,
	}
}

// untraced is the end-to-end run: daemons as processes, set up
// setupReps times, the last set-up driven for the timed window.
func untraced(o options, w *workload, in *inputs, dir, template string) (*runOutcome, error) {
	hc := benchClient()
	defer hc.CloseIdleConnections()
	runDir := filepath.Join(dir, "untraced")
	dataDirs, err := dataDirsFor(w, runDir, template)
	if err != nil {
		return nil, err
	}
	out := &runOutcome{}
	var topo *topology
	for rep := 0; rep < setupReps; rep++ {
		total0, steal0, _ := cpuTicks()
		t, d, err := startTopology(hc, w, in, o.bin, runDir, dataDirs)
		if err != nil {
			return nil, err
		}
		total1, steal1, _ := cpuTicks()
		out.setups = append(out.setups, d.Seconds())
		out.setupSteal = append(out.setupSteal, newRatio(float64(steal1-steal0), float64(total1-total0), "").Value)
		if rep < setupReps-1 {
			t.stop()
			hc.CloseIdleConnections()
			continue
		}
		topo = t
	}
	defer topo.stop()
	if err := driveAndCheck(hc, topo, w, in, o, nil, out); err != nil {
		return nil, err
	}
	out.rssEndMB, err = peakRSSMB(topo.procs)
	return out, err
}

// traced repeats the run against in-process daemons with span
// middleware. Its numbers feed only the per-layer metrics.
func traced(o options, w *workload, in *inputs, dir, template string) (*runOutcome, error) {
	hc := benchClient()
	defer hc.CloseIdleConnections()
	runDir := filepath.Join(dir, "traced")
	dataDirs, err := dataDirsFor(w, runDir, template)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	topo, d, err := startTraced(hc, w, in, rec, dataDirs)
	if err != nil {
		return nil, err
	}
	defer topo.stop()
	out := &runOutcome{setups: []float64{d.Seconds()}}
	if err := driveAndCheck(hc, topo, w, in, o, rec, out); err != nil {
		return nil, err
	}
	out.spans = rec.all()
	return out, nil
}

func dataDirsFor(w *workload, runDir, template string) ([]string, error) {
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	if !w.fleet {
		return nil, nil
	}
	var dirs []string
	for i := 1; i <= 2; i++ {
		dd := filepath.Join(runDir, fmt.Sprintf("node-%d", i))
		if err := copyTree(template, dd); err != nil {
			return nil, err
		}
		dirs = append(dirs, dd)
	}
	return dirs, nil
}

// driveAndCheck runs the closed loop with counter scrapes around the
// timed window, then the post-run output checks.
func driveAndCheck(hc *http.Client, topo *topology, w *workload, in *inputs, o options, rec *recorder, out *runOutcome) error {
	var before, beforeGW counters
	var scrapeErr error
	st := drive(hc, topo.base, w, in, o.seed, o.seconds, rec,
		func() {
			before, beforeGW, scrapeErr = scrapeAll(hc, topo)
			if rec != nil {
				out.window[0] = rec.now()
			}
			if scrapeErr == nil && len(topo.procs) > 0 {
				out.rssMB, scrapeErr = peakRSSMB(topo.procs)
			}
		},
		func() {
			if rec != nil {
				out.window[1] = rec.now()
			}
			if scrapeErr != nil {
				return
			}
			var after, afterGW counters
			if after, afterGW, scrapeErr = scrapeAll(hc, topo); scrapeErr == nil {
				out.all, out.gw = diff(before, after), diff(beforeGW, afterGW)
			}
		})
	if scrapeErr != nil {
		return fmt.Errorf("metrics scrape: %w", scrapeErr)
	}
	postChecks(hc, topo, w, st)
	out.st = st
	return nil
}

// postChecks verifies the daemons' state after the drain: no task
// resident on any fabric and, on a fleet, every put blob listed with
// both replicas. Each check counts as one untimed op.
func postChecks(hc *http.Client, topo *topology, w *workload, st *runStats) {
	var fabs []struct {
		Node  string `json:"node"`
		Tasks int    `json:"tasks"`
	}
	err := getJSON(hc, topo.base+"/fabrics", &fabs)
	for _, f := range fabs {
		if err == nil && f.Tasks != 0 {
			err = fmt.Errorf("fabric on %q still holds %d task(s) after drain", f.Node, f.Tasks)
		}
	}
	st.check("fabrics empty after drain", err)
	if !w.fleet {
		return
	}
	var blobs []struct {
		Digest   string `json:"digest"`
		Replicas int    `json:"replicas"`
	}
	err = getJSON(hc, topo.base+"/vbs", &blobs)
	replicas := map[string]int{}
	for _, b := range blobs {
		replicas[b.Digest] = b.Replicas
	}
	for _, d := range st.putDigests {
		if err == nil && replicas[d] != 2 {
			err = fmt.Errorf("put blob %s listed with %d replicas, want 2", d[:12], replicas[d])
		}
	}
	st.check("put blobs on both replicas", err)
}

func (s *runStats) check(what string, err error) {
	s.other.count(err == nil)
	if err != nil {
		s.note(what + ": " + err.Error())
	}
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// fill records the untraced run: op counts and end-to-end metrics.
func (r *report) fill(un *runOutcome) {
	st := un.st
	r.Ops, r.Requests = map[string]tally{}, map[string]tally{}
	for k := opKind(0); k < nKinds; k++ {
		if st.ops[k].Attempted > 0 {
			r.Ops[k.String()] = st.ops[k]
		}
		if st.requests[k].Attempted > 0 {
			r.Requests[k.String()] = st.requests[k]
		}
	}
	r.Other = st.other
	r.attempted, r.failed = st.attempted(), st.failed()
	r.Failures = st.errs
	r.SetupRuns, r.SetupSteal = un.setups, un.setupSteal
	r.PerSecond = windowRates(st.done, time.Second, st.wall)
	e := map[string]metric{}
	// Every timing is taken on CPU time: a round trip is scaled by the
	// share of the machine's CPU time the hypervisor left it in that
	// second (steal, from /proc/stat), and a second of the window or of
	// a set-up counts at the share in which both vCPUs ran
	// (bothRunning). Co-tenants of a shared host then move the figures
	// much less, while anything the program does still moves them.
	// Throughput is the ops of the whole window over that time: the
	// host's speed also drifts in phases of seconds, and a mean over
	// the window follows the share of fast and slow seconds smoothly
	// where a median of the per-second rates jumps between them.
	// Request latency is the median over consecutive groups of
	// groupSize requests, so a burst of interference moves one group,
	// not the figure.
	r.Steal = st.steal
	done := onCPUTime(st.done, st.steal)
	e["throughput_ops_s"] = metric{Value: onCPURate(r.PerSecond, st.steal), Unit: "ops/s", Samples: len(r.PerSecond)}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		name := fmt.Sprintf("request_p%d_ms", int(math.Round(q*100)))
		if v, groups, ok := groupedPercentile(done, q); ok {
			e[name] = metric{Value: v, Unit: "ms", Samples: groups * groupSize}
		} else {
			r.NotApplied[name] = fmt.Sprintf("%d requests: fewer than one group of %d", len(done), groupSize)
		}
	}
	if v, n, ok := kindMedian(done); ok {
		e["kind_p50_ms"] = metric{Value: v, Unit: "ms", Samples: n}
	} else {
		r.NotApplied["kind_p50_ms"] = "no request kind has enough requests for a median"
	}
	r.latency(e, "load", kindMS(done, kLoad), true)
	r.latency(e, "get", kindMS(done, kGet), true)
	r.latency(e, "unload", kindMS(done, kUnload), false)
	r.latency(e, "put", kindMS(done, kPut), true)
	r.latency(e, "batch", kindMS(done, kBatch), true)
	e["failed_ratio"] = metric{Value: float64(r.failed) / float64(max(r.attempted, 1)), Unit: "ratio", Samples: r.attempted}
	onCPU := make([]float64, len(un.setups))
	for i, d := range un.setups {
		onCPU[i] = d * bothRunning(min(un.setupSteal[i], maxStealShare))
	}
	e["setup_s"] = metric{Value: median(onCPU), Unit: "s", Samples: len(onCPU)}
	// rss_mb is read when the timed window starts: the working set is
	// loaded by then, and the footprint does not depend on how many
	// blobs a run puts, which grows with the host's speed (and with the
	// program's, so a faster program would read as a larger one).
	// rss_end_mb, after the window, includes that growth.
	e["rss_mb"] = metric{Value: un.rssMB, Unit: "MB", Samples: 1}
	e["rss_end_mb"] = metric{Value: un.rssEndMB, Unit: "MB", Samples: 1}
	r.EndToEnd = e
	r.Counters = map[string]float64{}
	for k, v := range un.all {
		if v != 0 {
			r.Counters[k] = v
		}
	}
}

// latency adds <kind>_p50_ms and, when tail, <kind>_p99_ms — each only
// when the nearest-rank rule allows it (10 samples beyond).
func (r *report) latency(e map[string]metric, kind string, samples []float64, tail bool) {
	qs := []float64{0.5}
	if tail {
		qs = append(qs, 0.99)
	}
	for _, q := range qs {
		name := fmt.Sprintf("%s_p%d_ms", kind, int(math.Round(q*100)))
		if len(samples) == 0 {
			r.NotApplied[name] = "no " + kind + " requests in this workload"
			continue
		}
		v, ok := percentile(samples, q)
		if !ok {
			r.NotApplied[name] = fmt.Sprintf("%d samples: fewer than %d beyond the percentile", len(samples), minBeyond)
			continue
		}
		e[name] = metric{Value: v, Unit: "ms", Samples: len(samples)}
	}
}
