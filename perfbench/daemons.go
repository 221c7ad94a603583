package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/repo"
	"repro/internal/server"
)

// readyTimeout bounds one set-up: daemon launch until readiness.
const readyTimeout = 30 * time.Second

// topology is a running set of daemons for one workload.
type topology struct {
	base    string   // where clients send requests (gateway or lone node)
	daemons []string // every daemon's base URL, for /metrics scrapes
	procs   []*proc  // subprocesses (empty when in-process)
	stop    func()
}

// proc is one daemon subprocess.
type proc struct {
	name   string
	url    string
	cmd    *exec.Cmd
	exited chan struct{}
}

// running tracks live daemon subprocesses so an interrupted benchmark
// can still stop every process it started.
var running = struct {
	sync.Mutex
	procs    map[*proc]bool
	stopping bool // set by killRunning: no daemon may start after it
}{procs: map[*proc]bool{}}

// killRunning kills every live daemon and waits for each to exit. A
// daemon started concurrently is killed by startProc itself.
func killRunning() {
	running.Lock()
	running.stopping = true
	var ps []*proc
	for p := range running.procs {
		ps = append(ps, p)
	}
	running.Unlock()
	for _, p := range ps {
		_ = p.cmd.Process.Kill()
	}
	for _, p := range ps {
		<-p.exited
	}
}

// freeAddr reserves a loopback port for a daemon to bind.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// nodeArgs are the vbsd flags of every workload: 2×64×64 fabrics at
// W=12, plus the workload's cache size and, on fleets, a data dir.
func nodeArgs(w *workload, dataDir string) []string {
	args := []string{"-fabrics", "2", "-size", "64x64", "-w", strconv.Itoa(benchW)}
	if w.cacheMbits > 0 {
		args = append(args, "-cache-mbits", strconv.FormatInt(w.cacheMbits, 10))
	}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	return args
}

// startProc launches one daemon listening on addr, logging to
// <logDir>/<name>.log.
func startProc(bin, name, logDir, addr string, args []string) (*proc, error) {
	args = append([]string{"-addr", addr}, args...)
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, exited: make(chan struct{})}
	running.Lock()
	running.procs[p] = true
	stopping := running.stopping
	running.Unlock()
	go func() {
		_ = cmd.Wait()
		logf.Close()
		running.Lock()
		delete(running.procs, p)
		running.Unlock()
		close(p.exited)
	}()
	if stopping {
		_ = cmd.Process.Kill()
		<-p.exited
		return nil, fmt.Errorf("start %s: benchmark stopping", name)
	}
	return p, nil
}

// stopProcs interrupts every daemon (graceful shutdown) and waits for
// each to exit, killing any that outstay the grace period.
func stopProcs(ps []*proc) {
	for _, p := range ps {
		_ = p.cmd.Process.Signal(syscall.SIGINT)
	}
	for _, p := range ps {
		select {
		case <-p.exited:
		case <-time.After(8 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.exited
		}
	}
}

// waitHealthy polls url/healthz until it answers 200 and ok(body)
// holds, failing fast if a watched daemon exits.
func waitHealthy(hc *http.Client, url string, deadline time.Time, watch []*proc, ok func([]byte) bool) error {
	for {
		for _, p := range watch {
			select {
			case <-p.exited:
				return fmt.Errorf("%s exited during set-up (see its log)", p.name)
			default:
			}
		}
		resp, err := hc.Get(url + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && (ok == nil || ok(body)) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v", url, readyTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// startTopology launches the workload's daemons as processes and
// returns once readiness passes, with the set-up time. For a fleet the
// nodes start first (their boot includes repo.Open's recovery scan
// over the seeded data dirs), then the gateway; ready means the
// gateway sees both nodes alive and its per-node streams are up.
func startTopology(hc *http.Client, w *workload, in *inputs, bin, dir string, dataDirs []string) (*topology, time.Duration, error) {
	begin := time.Now()
	deadline := begin.Add(readyTimeout)
	t := &topology{}
	t.stop = func() { stopProcs(t.procs) }
	fail := func(err error) (*topology, time.Duration, error) {
		t.stop()
		return nil, 0, err
	}
	if !w.fleet {
		addr, err := freeAddr()
		if err != nil {
			return fail(err)
		}
		p, err := startProc(filepath.Join(bin, "vbsd"), "vbsd", dir, addr, nodeArgs(w, ""))
		if err != nil {
			return fail(err)
		}
		t.procs = append(t.procs, p)
		if err := waitHealthy(hc, p.url, deadline, t.procs, nil); err != nil {
			return fail(err)
		}
		t.base, t.daemons = p.url, []string{p.url}
		return t, time.Since(begin), nil
	}
	var nodeURLs []string
	for i, dd := range dataDirs {
		addr, err := freeAddr()
		if err != nil {
			return fail(err)
		}
		p, err := startProc(filepath.Join(bin, "vbsd"), fmt.Sprintf("vbsd-%d", i+1), dir, addr, nodeArgs(w, dd))
		if err != nil {
			return fail(err)
		}
		t.procs = append(t.procs, p)
		nodeURLs = append(nodeURLs, p.url)
	}
	for _, u := range nodeURLs {
		if err := waitHealthy(hc, u, deadline, t.procs, nil); err != nil {
			return fail(err)
		}
	}
	addr, err := freeAddr()
	if err != nil {
		return fail(err)
	}
	gw, err := startProc(filepath.Join(bin, "vbsgw"), "vbsgw", dir, addr,
		[]string{"-nodes", strings.Join(nodeURLs, ","), "-replicas", "2"})
	if err != nil {
		return fail(err)
	}
	t.procs = append(t.procs, gw)
	t.base, t.daemons = gw.url, append([]string{gw.url}, nodeURLs...)
	if err := fleetReady(hc, gw.url, len(nodeURLs), in, deadline, t.procs); err != nil {
		return fail(err)
	}
	return t, time.Since(begin), nil
}

// fleetReady waits until the gateway reports every node alive, then
// opens its per-node streams: a batch of gets over seeded blobs routes
// a sub-batch to each node, which dials that node's stream (the
// sub-batch itself falls back to HTTP while the dial completes). Ready
// is the gateway's vbs_transport_streams_open reaching the node count.
func fleetReady(hc *http.Client, gw string, nodes int, in *inputs, deadline time.Time, watch []*proc) error {
	alive := func(body []byte) bool {
		var h struct{ Alive int }
		return json.Unmarshal(body, &h) == nil && h.Alive == nodes
	}
	if err := waitHealthy(hc, gw, deadline, watch, alive); err != nil {
		return err
	}
	var req server.BatchRequest
	for _, b := range in.seeded[:batchOps] {
		req.Ops = append(req.Ops, server.BatchOp{Op: "get", Digest: b.digest})
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	for {
		resp, err := hc.Post(gw+"/tasks:batch", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("stream warm-up batch: %w", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("stream warm-up batch: status %d", resp.StatusCode)
		}
		for wait := time.Now().Add(500 * time.Millisecond); time.Now().Before(wait); time.Sleep(2 * time.Millisecond) {
			samples, err := scrape(hc, gw)
			if err != nil {
				return err
			}
			if open, _ := metrics.Find(samples, "vbs_transport_streams_open", nil); int(open) >= nodes {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway streams not up after %v", readyTimeout)
		}
	}
}

// scrape reads one daemon's /metrics.
func scrape(hc *http.Client, base string) ([]metrics.Sample, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", base, resp.StatusCode)
	}
	return metrics.Parse(resp.Body)
}

// scrapeAll sums every daemon's counters, and keeps the gateway's
// (the first daemon of a fleet) apart under gw.
func scrapeAll(hc *http.Client, t *topology) (all, gw counters, err error) {
	all, gw = counters{}, counters{}
	for i, d := range t.daemons {
		s, err := scrape(hc, d)
		if err != nil {
			return nil, nil, err
		}
		all.add(s)
		if i == 0 && len(t.daemons) > 1 {
			gw.add(s)
		}
	}
	return all, gw, nil
}

// peakRSSMB sums VmHWM (peak resident set) over the daemon processes.
func peakRSSMB(ps []*proc) (float64, error) {
	var kb float64
	for _, p := range ps {
		f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(f)
		found := false
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				n, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err != nil {
					f.Close()
					return 0, err
				}
				kb += n
				found = true
			}
		}
		f.Close()
		if !found {
			return 0, fmt.Errorf("no VmHWM for %s", p.name)
		}
	}
	return kb / 1024, nil
}

// seedTemplate writes the seeded blobs into a fresh repository at dir
// — the state every fleet node's data dir starts from.
func seedTemplate(dir string, blobs []*blob) error {
	r, err := repo.Open(dir, repo.Options{})
	if err != nil {
		return err
	}
	for _, b := range blobs {
		if _, err := r.PutDigest(repo.DigestOf(b.data), b.data); err != nil {
			return err
		}
	}
	return nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return errors.New("copyTree: unexpected non-regular file " + path)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
