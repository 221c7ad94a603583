package main

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/loadgen"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/rrg"
	"repro/internal/server"
)

// benchW and benchK are the architecture every workload's fabrics and
// containers share (the daemons run with -w 12 and the default -k 6).
const (
	benchW = 12
	benchK = 6
)

// Corpus sizes fixed by the workload design.
const (
	hotCount    = 8   // small loadgen containers every hot workload loads
	coldCount   = 64  // ≈10×10-macro containers node-cold cycles through
	seededCount = 256 // blobs the fleet's data dirs hold at boot
)

// blob is one container with everything the driver needs to send it
// and check what comes back, computed before timing starts.
type blob struct {
	data   []byte
	digest string // hex SHA-256 of data
	w, h   int    // task footprint in macros
	body   []byte // {"vbs": base64} — the body of POST /tasks and POST /vbs
}

func newBlob(data []byte) (*blob, error) {
	v, err := core.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	body, err := json.Marshal(server.LoadRequest{VBS: base64.StdEncoding.EncodeToString(data)})
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	return &blob{data: data, digest: hex.EncodeToString(sum[:]), w: v.TaskW, h: v.TaskH, body: body}, nil
}

// seedBase spreads workload seeds far apart so the container families
// drawn from one seed never overlap those of a neighbouring seed.
func seedBase(seed int64) int64 { return seed * 100_000 }

// hotBlobs returns the 8 small containers of the hot set.
func hotBlobs(seed int64) ([]*blob, error) {
	return genBlobs(hotCount, func(i int) ([]byte, error) {
		return loadgen.GenTask(seedBase(seed)+int64(i), benchW, benchK)
	})
}

// seededBlobs returns the blobs a fleet's data dirs hold at boot.
func seededBlobs(seed int64) ([]*blob, error) {
	return genBlobs(seededCount, func(i int) ([]byte, error) {
		return loadgen.GenTask(seedBase(seed)+1_000+int64(i), benchW, benchK)
	})
}

// coldBlobs returns node-cold's 64 ≈10×10-macro containers. A design
// the router cannot fit at W=12 is skipped for the next seed, so the
// family is still a pure function of the workload seed.
func coldBlobs(seed int64) ([]*blob, error) {
	var out []*blob
	for round := 0; round < 4 && len(out) < coldCount; round++ {
		datas, errs := compileAll(coldCount, func(i int) ([]byte, error) {
			return coldTask(seedBase(seed) + 10_000 + int64(round*coldCount+i))
		})
		for i, data := range datas {
			if errs[i] != nil || len(out) == coldCount {
				continue
			}
			b, err := newBlob(data)
			if err != nil {
				return nil, err
			}
			out = append(out, b)
		}
	}
	if len(out) < coldCount {
		return nil, fmt.Errorf("corpus: only %d of %d cold tasks routed", len(out), coldCount)
	}
	return out, nil
}

// coldTask compiles one ≈10×10-macro task through the repository's own
// offline flow: gen → place → route → core.Encode at W=benchW.
func coldTask(seed int64) ([]byte, error) {
	d, err := gen.Generate(gen.Params{
		Name: "perfbench-cold", Seed: seed, LBs: 40, Inputs: 8, Outputs: 8, K: benchK,
		AvgFanin: 3.5, Locality: 0.85, Window: 32, RegFrac: 0.1,
	})
	if err != nil {
		return nil, err
	}
	grid := arch.GridForSize(8)
	pl, err := place.Place(d, grid, place.Options{Seed: seed, InnerNum: 1, FastExit: true})
	if err != nil {
		return nil, err
	}
	gr, err := rrg.Build(arch.Params{W: benchW, K: benchK}, grid)
	if err != nil {
		return nil, err
	}
	res, err := route.Route(d, pl, gr, route.Options{})
	if err != nil {
		return nil, fmt.Errorf("route cold task %d: %w", seed, err)
	}
	v, _, err := core.Encode(d, pl, res, core.EncodeOptions{Cluster: 1})
	if err != nil {
		return nil, err
	}
	return v.Encode()
}

// genBlobs builds n blobs from compile(i); any failure fails the set.
func genBlobs(n int, compile func(i int) ([]byte, error)) ([]*blob, error) {
	datas, errs := compileAll(n, compile)
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	out := make([]*blob, n)
	for i, data := range datas {
		b, err := newBlob(data)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// compileAll runs compile(0..n-1) on two workers, keeping every
// result and error by index.
func compileAll(n int, compile func(i int) ([]byte, error)) ([][]byte, []error) {
	datas := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				datas[i], errs[i] = compile(i)
			}
		}()
	}
	wg.Wait()
	return datas, errs
}

// variant derives a container never stored before from base: the
// first logic payload's low bits are XOR-ed with n (n ≥ 1), which
// keeps the container valid and changes its digest.
func variant(base []byte, n int) ([]byte, error) {
	v, err := core.Parse(base)
	if err != nil {
		return nil, err
	}
	for i := range v.Entries {
		if len(v.Entries[i].Logic) == 0 {
			continue
		}
		d := v.Entries[i].Logic[0].Data.Clone()
		for b := 0; b < 31 && b < d.Len(); b++ {
			if n>>b&1 == 1 {
				d.Set(b, !d.Get(b))
			}
		}
		v.Entries[i].Logic[0].Data = d
		return v.Encode()
	}
	return nil, errors.New("corpus: container has no logic payload to vary")
}
