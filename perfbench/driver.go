package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// completion is one successful timed request: when it returned,
// relative to the start of the timed window, and its op count.
type completion struct {
	at   time.Duration
	ms   float64 // round trip
	ops  int
	kind opKind
}

// tally counts one op kind's outcomes.
type tally struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// runStats is what the clients observed in one timed window.
type runStats struct {
	// ops counts timed ops by kind (a batch's inner ops under their
	// own kinds); requests counts timed round trips by kind.
	ops      [nKinds]tally
	requests [nKinds]tally
	// done records every successful timed request: when it completed
	// (offset from the window start), its round trip, op count and kind.
	done []completion
	// other counts untimed work that must also succeed: warm-up,
	// drain and the post-run checks.
	other tally
	wall  time.Duration
	errs  []string
	// putDigests lists every blob a timed put stored.
	putDigests []string
	// steal is the machine's steal share in each second of the window.
	steal []float64
}

func (s *runStats) merge(o *runStats) {
	for k := range s.ops {
		s.ops[k].add(o.ops[k])
		s.requests[k].add(o.requests[k])
	}
	s.done = append(s.done, o.done...)
	s.other.add(o.other)
	s.putDigests = append(s.putDigests, o.putDigests...)
	for _, e := range o.errs {
		s.note(e)
	}
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Succeeded += o.Succeeded
	t.Failed += o.Failed
}

func (t *tally) count(ok bool) {
	t.Attempted++
	if ok {
		t.Succeeded++
	} else {
		t.Failed++
	}
}

// note keeps the first few failure messages for the report.
func (s *runStats) note(msg string) {
	if len(s.errs) < 8 {
		s.errs = append(s.errs, msg)
	}
}

func (s *runStats) succeededOps() int {
	n := 0
	for k := range s.ops {
		n += s.ops[k].Succeeded
	}
	return n
}

func (s *runStats) attempted() int {
	n := s.other.Attempted
	for k := range s.ops {
		n += s.ops[k].Attempted
	}
	return n
}

func (s *runStats) failed() int {
	n := s.other.Failed
	for k := range s.ops {
		n += s.ops[k].Failed
	}
	return n
}

// client is one closed-loop load generator: it owns the tasks it
// loaded and sends its next request only when the previous returns.
type client struct {
	hc       *http.Client
	base     string
	in       *inputs
	resident []int64
	rec      *recorder      // nil when untraced
	opIDs    *atomic.Uint64 // shared op id source for spans
	start    time.Time      // start of the timed window
	st       runStats
}

// call performs one request and reads the whole reply. Traced, it
// records a client span and stamps the propagation headers.
func (c *client) call(method, path string, body []byte, kind opKind) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var sp span
	if c.rec != nil {
		sp = span{ID: c.rec.newID(), Op: c.opIDs.Add(1), Layer: "client", Kind: kind.String()}
		req.Header.Set(hdrParent, strconv.FormatUint(sp.ID, 10))
		req.Header.Set(hdrOp, strconv.FormatUint(sp.Op, 10))
		sp.Start = c.rec.now()
	}
	begin := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(begin), err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(begin)
	if c.rec != nil {
		sp.End = c.rec.now()
		c.rec.add(sp)
	}
	return resp.StatusCode, out, elapsed, err
}

// do runs one op. timed ops land in the latency and op tallies;
// untimed ones (warm-up, drain) only in the "other" tally.
func (c *client) do(o op, timed bool) {
	var elapsed time.Duration
	var oks []bool
	var kinds []opKind
	var err error
	if o.kind == kBatch {
		elapsed, kinds, oks, err = c.batch(o)
	} else {
		var ok bool
		elapsed, ok, err = c.single(o)
		kinds, oks = []opKind{o.kind}, []bool{ok}
	}
	if err != nil {
		c.st.note(fmt.Sprintf("%s: %v", o.kind, err))
	}
	allOK := err == nil
	for _, ok := range oks {
		allOK = allOK && ok
	}
	if !timed {
		for _, ok := range oks {
			c.st.other.count(ok)
		}
		return
	}
	c.st.requests[o.kind].count(allOK)
	for i, k := range kinds {
		c.st.ops[k].count(oks[i])
	}
	if allOK {
		ms := float64(elapsed) / float64(time.Millisecond)
		c.st.done = append(c.st.done, completion{at: time.Since(c.start), ms: ms, ops: len(kinds), kind: o.kind})
	}
}

func (c *client) single(o op) (time.Duration, bool, error) {
	switch o.kind {
	case kLoad:
		b := c.in.loads[o.arg]
		status, body, el, err := c.call(http.MethodPost, "/tasks", b.body, kLoad)
		if err != nil {
			return el, false, err
		}
		if status != http.StatusCreated {
			return el, false, fmt.Errorf("status %d: %s", status, body)
		}
		var lr server.LoadResponse
		if err := json.Unmarshal(body, &lr); err != nil {
			return el, false, err
		}
		if err := checkLoad(&lr, b); err != nil {
			return el, false, err
		}
		c.resident = append(c.resident, lr.ID)
		return el, true, nil
	case kUnload:
		id, ok := c.takeResident(o.arg)
		if !ok {
			return 0, false, fmt.Errorf("no resident task in slot %d", o.arg)
		}
		status, body, el, err := c.call(http.MethodDelete, "/tasks/"+strconv.FormatInt(id, 10), nil, kUnload)
		if err == nil && status != http.StatusNoContent {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		return el, err == nil, err
	case kGet:
		b, err := c.getTarget(o.arg)
		if err != nil {
			return 0, false, err
		}
		status, body, el, err := c.call(http.MethodGet, "/vbs/"+b.digest, nil, kGet)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err == nil {
			err = checkBytes(body, b)
		}
		return el, err == nil, err
	case kPut:
		b, err := c.in.puts.get(o.arg)
		if err != nil {
			return 0, false, err
		}
		status, body, el, err := c.call(http.MethodPost, "/vbs", b.body, kPut)
		if err == nil && status != http.StatusCreated {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err == nil {
			var pr server.PutVBSResponse
			if err = json.Unmarshal(body, &pr); err == nil && pr.Digest != b.digest {
				err = fmt.Errorf("put digest %s, want %s", pr.Digest, b.digest)
			}
		}
		if err == nil {
			c.st.putDigests = append(c.st.putDigests, b.digest)
		}
		return el, err == nil, err
	}
	return 0, false, fmt.Errorf("unexpected single op %s", o.kind)
}

// batch sends one POST /tasks:batch and checks every result in order.
func (c *client) batch(o op) (time.Duration, []opKind, []bool, error) {
	kinds := make([]opKind, len(o.ops))
	oks := make([]bool, len(o.ops))
	req := server.BatchRequest{Ops: make([]server.BatchOp, len(o.ops))}
	var loads []*blob
	var gets []*blob
	for i, sub := range o.ops {
		kinds[i] = sub.kind
		switch sub.kind {
		case kLoad:
			b := c.in.loads[sub.arg]
			req.Ops[i] = server.BatchOp{Op: "load", VBS: base64.StdEncoding.EncodeToString(b.data)}
			loads = append(loads, b)
		case kGet:
			b := c.in.gets[sub.arg]
			req.Ops[i] = server.BatchOp{Op: "get", Digest: b.digest}
			gets = append(gets, b)
		case kUnload:
			id, ok := c.takeResident(sub.arg)
			if !ok {
				return 0, kinds, oks, fmt.Errorf("no resident task in slot %d", sub.arg)
			}
			req.Ops[i] = server.BatchOp{Op: "unload", ID: id}
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, kinds, oks, err
	}
	status, out, el, err := c.call(http.MethodPost, "/tasks:batch", body, kBatch)
	if err != nil {
		return el, kinds, oks, err
	}
	if status != http.StatusOK {
		return el, kinds, oks, fmt.Errorf("status %d: %s", status, out)
	}
	var resp server.BatchResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return el, kinds, oks, err
	}
	if len(resp.Results) != len(o.ops) {
		return el, kinds, oks, fmt.Errorf("short batch reply: %d of %d results", len(resp.Results), len(o.ops))
	}
	var firstErr error
	fail := func(i int, err error) {
		if firstErr == nil {
			firstErr = fmt.Errorf("batch op %d (%s): %w", i, kinds[i], err)
		}
	}
	li, gi := 0, 0
	for i, r := range resp.Results {
		switch kinds[i] {
		case kLoad:
			b := loads[li]
			li++
			if r.Status != http.StatusCreated || r.Load == nil {
				fail(i, fmt.Errorf("status %d: %s", r.Status, r.Error))
				continue
			}
			if err := checkLoad(r.Load, b); err != nil {
				fail(i, err)
				continue
			}
			c.resident = append(c.resident, r.Load.ID)
		case kGet:
			b := gets[gi]
			gi++
			if r.Status != http.StatusOK {
				fail(i, fmt.Errorf("status %d: %s", r.Status, r.Error))
				continue
			}
			data, err := base64.StdEncoding.DecodeString(r.VBS)
			if err == nil {
				err = checkBytes(data, b)
			}
			if err != nil {
				fail(i, err)
				continue
			}
		case kUnload:
			if r.Status != http.StatusNoContent {
				fail(i, fmt.Errorf("status %d: %s", r.Status, r.Error))
				continue
			}
		}
		oks[i] = true
	}
	return el, kinds, oks, firstErr
}

// takeResident removes and returns the task in slot k (swap-remove,
// the same bookkeeping the op generator simulates).
func (c *client) takeResident(k int) (int64, bool) {
	if k < 0 || k >= len(c.resident) {
		return 0, false
	}
	id := c.resident[k]
	last := len(c.resident) - 1
	c.resident[k] = c.resident[last]
	c.resident = c.resident[:last]
	return id, true
}

func (c *client) getTarget(arg int) (*blob, error) {
	if arg >= 0 {
		return c.in.gets[arg], nil
	}
	return c.in.puts.get(-arg - 1)
}

// checkLoad verifies a load reply against the container sent.
func checkLoad(lr *server.LoadResponse, b *blob) error {
	if lr.Digest != b.digest {
		return fmt.Errorf("load digest %s, want %s", lr.Digest, b.digest)
	}
	if lr.TaskW != b.w || lr.TaskH != b.h {
		return fmt.Errorf("load task %dx%d, want %dx%d", lr.TaskW, lr.TaskH, b.w, b.h)
	}
	return nil
}

// checkBytes verifies served blob bytes hash to the digest asked for
// and equal the bytes the benchmark stored.
func checkBytes(got []byte, b *blob) error {
	sum := sha256.Sum256(got)
	if hex.EncodeToString(sum[:]) != b.digest {
		return fmt.Errorf("served bytes hash to %x, want %s", sum[:6], b.digest[:12])
	}
	if !bytes.Equal(got, b.data) {
		return fmt.Errorf("served bytes differ from the stored container")
	}
	return nil
}

// rampTime is the untimed closed-loop run before each timed window.
const rampTime = time.Second

// loop runs every client's closed loop until deadline and returns when
// each client ended (its last request started before the deadline).
func loop(cs []*client, gens []seqGen, deadline time.Time, timed bool) []time.Time {
	ends := make([]time.Time, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.do(gens[i].next(), timed)
			}
			ends[i] = time.Now()
		}()
	}
	wg.Wait()
	return ends
}

// drive runs the warm-up, the ramp, the timed closed loop and the
// drain against base. before and after bracket the timed window
// (counter scrapes).
func drive(hc *http.Client, base string, w *workload, in *inputs, seed int64, seconds float64,
	rec *recorder, before, after func()) *runStats {
	var opIDs atomic.Uint64
	cs := make([]*client, clients)
	gens := make([]seqGen, clients)
	warms := make([][]op, clients)
	for i := range cs {
		cs[i] = &client{hc: hc, base: base, in: in, rec: rec, opIDs: &opIDs}
		warms[i], gens[i] = w.newGen(in, seed, i)
	}
	// The hot set enters the store and decoded cache (and, on a fleet,
	// every replica) before timing: load then unload each once.
	if w.warmHot {
		for i := range in.loads {
			cs[0].do(op{kind: kLoad, arg: i}, false)
			cs[0].do(op{kind: kUnload, arg: 0}, false)
		}
	}
	for i, c := range cs {
		for _, o := range warms[i] {
			c.do(o, false)
		}
	}
	// Ramp: the closed loop runs untimed for rampTime so connection
	// set-up, first-use allocation and GC sizing settle before timing.
	loop(cs, gens, time.Now().Add(rampTime), false)
	before()
	start := time.Now()
	for _, c := range cs {
		c.start = start
	}
	sampler := startStealSampler()
	ends := loop(cs, gens, start.Add(time.Duration(seconds*float64(time.Second))), true)
	steal := sampler.finish()
	after()
	st := &runStats{steal: steal}
	for _, e := range ends {
		st.wall = max(st.wall, e.Sub(start))
	}
	for _, c := range cs {
		for len(c.resident) > 0 {
			c.do(op{kind: kUnload, arg: len(c.resident) - 1}, false)
		}
		st.merge(&c.st)
	}
	return st
}
