package main

import (
	"fmt"
	"math/rand"
	"sync"
)

// clients is the closed-loop client count: each client sends its next
// request when the previous one returns.
const clients = 2

// residentCap bounds the tasks one client holds on the fabrics; a
// load drawn at the cap becomes an unload, so a capacity refusal (409)
// cannot happen on an unmodified tree and counts as a failure.
const residentCap = 16

// batchOps is the op count of every fleet-batch request.
const batchOps = 16

type opKind uint8

const (
	kLoad opKind = iota
	kGet
	kUnload
	kPut
	kBatch
	nKinds
)

var kindNames = [nKinds]string{"load", "get", "unload", "put", "batch"}

func (k opKind) String() string { return kindNames[k] }

// op is one client operation. arg is, by kind: the index into
// inputs.loads (load); a blob reference (get: ≥0 indexes inputs.gets,
// <0 is put index -arg-1); the put index (put); the resident slot
// (unload). A batch carries its ops instead.
type op struct {
	kind opKind
	arg  int
	ops  []op
}

// inputs is everything a workload's clients send, made from the seed
// before any daemon starts.
type inputs struct {
	loads  []*blob // containers loads draw from
	gets   []*blob // stored blobs gets draw from, besides earlier puts
	seeded []*blob // blobs written into each fleet node's data dir before boot
	puts   *putPool
}

// workload is one named traffic mix over one daemon topology.
type workload struct {
	name, why string
	// fleet runs 2 vbsd -data-dir nodes behind vbsgw -replicas 2;
	// otherwise a single RAM-only vbsd.
	fleet bool
	// cacheMbits is vbsd's -cache-mbits (0 keeps the daemon default).
	cacheMbits int64
	// warmHot loads and unloads every hot container once before
	// timing, so the store and decoded cache hold the hot set.
	warmHot bool
	inputs  func(seed int64) (*inputs, error)
	// newGen returns client c's op source. warm is the prefix run
	// before timing starts.
	newGen func(in *inputs, seed int64, c int) (warm []op, g seqGen)
}

// seqGen yields a client's ops in order, a pure function of the seed.
type seqGen interface{ next() op }

var workloads = []*workload{
	{
		name:       "node-cold",
		why:        "64 10x10-macro containers, about 3x the 1 Mbit decoded cache: most loads de-virtualize and placement runs at real occupancy",
		cacheMbits: 1,
		inputs:     coldInputs,
		newGen:     newCold,
	},
	{
		name:    "fleet-rw",
		why:     "gateway over 2 disk-backed nodes, R=2: fsync'd puts, verified disk reads of seeded blobs, replication and repair checks",
		fleet:   true,
		warmHot: true,
		inputs:  fleetInputs,
		newGen: func(in *inputs, seed int64, c int) ([]op, seqGen) {
			return nil, newMix(in, seed, c, [4]int{20, 55, 20, 5})
		},
	},
	{
		name:    "fleet-batch",
		why:     "same fleet, 16-op POST /tasks:batch: the only workload on Stream.Call, the node batch executor and the gateway batch fan-out",
		fleet:   true,
		warmHot: true,
		inputs:  fleetBatchInputs,
		newGen: func(in *inputs, seed int64, c int) ([]op, seqGen) {
			return nil, &batchGen{mixGen: newMix(in, seed, c, [4]int{20, 60, 20, 0})}
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func coldInputs(seed int64) (*inputs, error) {
	cold, err := coldBlobs(seed)
	if err != nil {
		return nil, err
	}
	return &inputs{loads: cold}, nil
}

func fleetInputs(seed int64) (*inputs, error) {
	hot, err := hotBlobs(seed)
	if err != nil {
		return nil, err
	}
	seeded, err := seededBlobs(seed)
	if err != nil {
		return nil, err
	}
	return &inputs{loads: hot, gets: seeded, seeded: seeded, puts: &putPool{bases: seeded, made: map[int]*blob{}}}, nil
}

// fleetBatchInputs boots the same seeded fleet as fleet-rw, but every
// batch op works on the hot set.
func fleetBatchInputs(seed int64) (*inputs, error) {
	in, err := fleetInputs(seed)
	if err != nil {
		return nil, err
	}
	in.gets, in.puts = in.loads, nil
	return in, nil
}

// clientRand derives client c's generator from the workload seed.
func clientRand(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(c) + 1))
}

// mixGen draws single ops by weight (load, get, unload, put), holding
// the client's simulated residency under residentCap.
type mixGen struct {
	rng      *rand.Rand
	weights  [4]int
	total    int
	in       *inputs
	c        int
	resident int
	puts     []int // this client's put indices so far
}

func newMix(in *inputs, seed int64, c int, weights [4]int) *mixGen {
	g := &mixGen{rng: clientRand(seed, c), weights: weights, in: in, c: c}
	for _, w := range weights {
		g.total += w
	}
	return g
}

func (g *mixGen) draw() opKind {
	r := g.rng.Intn(g.total)
	for k, w := range g.weights {
		if r < w {
			return opKind(k)
		}
		r -= w
	}
	panic("unreachable: weights sum to total")
}

func (g *mixGen) next() op {
	kind := g.draw()
	switch {
	case kind == kLoad && g.resident >= residentCap:
		kind = kUnload
	case kind == kUnload && g.resident == 0:
		kind = kLoad
	}
	switch kind {
	case kLoad:
		g.resident++
		return op{kind: kLoad, arg: g.rng.Intn(len(g.in.loads))}
	case kUnload:
		k := g.rng.Intn(g.resident)
		g.resident--
		return op{kind: kUnload, arg: k}
	case kPut:
		idx := len(g.puts)*clients + g.c
		g.puts = append(g.puts, idx)
		return op{kind: kPut, arg: idx}
	default:
		// Half the gets read one of the client's earlier puts (served
		// from RAM), half a seeded, disk-only blob. Drawing over all
		// blobs so far would shift the gets towards the puts as the run
		// goes, so a run the host makes faster early would put more and
		// grow faster still.
		if len(g.puts) > 0 && g.rng.Intn(2) == 0 {
			return op{kind: kGet, arg: -g.puts[g.rng.Intn(len(g.puts))] - 1}
		}
		return op{kind: kGet, arg: g.rng.Intn(len(g.in.gets))}
	}
}

// batchGen packs batchOps draws into one batch. Unloads only name
// tasks resident when the batch starts (a load's id is unknown until
// its batch returns); a draw the residency rules cannot honour becomes
// a get.
type batchGen struct{ *mixGen }

func (g *batchGen) next() op {
	b := op{kind: kBatch, ops: make([]op, 0, batchOps)}
	unloadable, loads := g.resident, 0
	for len(b.ops) < batchOps {
		kind := g.draw()
		switch {
		case kind == kLoad && unloadable+loads >= residentCap:
			kind = kUnload
		case kind == kUnload && unloadable == 0:
			kind = kLoad
		}
		if (kind == kLoad && unloadable+loads >= residentCap) || (kind == kUnload && unloadable == 0) {
			kind = kGet
		}
		switch kind {
		case kLoad:
			loads++
			b.ops = append(b.ops, op{kind: kLoad, arg: g.rng.Intn(len(g.in.loads))})
		case kUnload:
			b.ops = append(b.ops, op{kind: kUnload, arg: g.rng.Intn(unloadable)})
			unloadable--
		default:
			b.ops = append(b.ops, op{kind: kGet, arg: g.rng.Intn(len(g.in.gets))})
		}
	}
	g.resident = unloadable + loads
	return b
}

// coldGen fills to residentCap during warm-up, then alternates
// unloading a random resident task and loading a random container.
type coldGen struct {
	rng    *rand.Rand
	n      int
	unload bool
}

func newCold(in *inputs, seed int64, c int) ([]op, seqGen) {
	g := &coldGen{rng: clientRand(seed, c), n: len(in.loads), unload: true}
	warm := make([]op, residentCap)
	for i := range warm {
		warm[i] = op{kind: kLoad, arg: g.rng.Intn(g.n)}
	}
	return warm, g
}

func (g *coldGen) next() op {
	g.unload = !g.unload
	if !g.unload {
		return op{kind: kUnload, arg: g.rng.Intn(residentCap)}
	}
	return op{kind: kLoad, arg: g.rng.Intn(g.n)}
}

// putPool hands out fresh put containers: put k is variant k/256+1 of
// seeded blob k%256, so every put stores bytes no node has seen. The
// expected count is made before timing (prepare); a faster system
// that outruns it gets more made on demand, identical either way.
type putPool struct {
	bases []*blob

	mu   sync.Mutex
	made map[int]*blob
}

func (p *putPool) get(k int) (*blob, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.made[k]; ok {
		return b, nil
	}
	data, err := variant(p.bases[k%len(p.bases)].data, k/len(p.bases)+1)
	if err != nil {
		return nil, err
	}
	b, err := newBlob(data)
	if err != nil {
		return nil, err
	}
	p.made[k] = b
	return b, nil
}

// prepare makes puts 0..n-1 ahead of timing.
func (p *putPool) prepare(n int) error {
	for k := 0; k < n; k++ {
		if _, err := p.get(k); err != nil {
			return err
		}
	}
	return nil
}
