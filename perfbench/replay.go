package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/arch"
	"repro/internal/bitstream"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/repo"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/server/store"
	"repro/internal/transport"
)

// stage is one replayed layer call: per-call timings in the stage's
// unit, plus how many calls were timed.
type stage struct {
	unit    string
	samples []float64
}

func (s *stage) median() float64 { return median(s.samples) }

// replayResult is the stage replay's output: timings by metric name
// and the failed bit-identity / round-trip checks.
type replayResult struct {
	stages   map[string]*stage
	problems []string
}

func (r *replayResult) time(name, unit string, scale time.Duration, fn func() error) error {
	s := r.stages[name]
	if s == nil {
		s = &stage{unit: unit}
		r.stages[name] = s
	}
	begin := time.Now()
	err := fn()
	s.samples = append(s.samples, float64(time.Since(begin))/float64(scale))
	return err
}

// replay feeds the workload's own inputs through the exported layer
// functions the daemons call, one stage at a time, and checks that
// each layer's output is still right. dir is scratch space for the
// repository stages; template is the seeded fleet data dir ("" when
// the workload has none).
func replay(in *inputs, dir, template string) (*replayResult, error) {
	r := &replayResult{stages: map[string]*stage{}}
	conts := in.loads
	// Stores and repositories need blobs they have never seen: the
	// fleet's fresh puts where the workload has them.
	fresh := conts
	if in.puts != nil {
		fresh = nil
		for k := 0; k < 64; k++ {
			b, err := in.puts.get(k)
			if err != nil {
				return nil, err
			}
			fresh = append(fresh, b)
		}
	}
	steps := []func(*replayResult, []*blob, []*blob) error{
		replayAdmission, replayDecode, replayPlacement, replayTransport,
	}
	for _, step := range steps {
		if err := step(r, conts, fresh); err != nil {
			return nil, err
		}
	}
	if err := replayRepo(r, fresh, filepath.Join(dir, "replay-repo"), template); err != nil {
		return nil, err
	}
	return r, nil
}

// replayAdmission times what POST /tasks does before decode: the JSON
// body and base64, SHA-256, store.Put (fresh and deduplicated), and
// the core.Parse + VBS.Warm that a fresh Put runs.
func replayAdmission(r *replayResult, conts, fresh []*blob) error {
	for i := 0; i < 2000; i++ {
		b := conts[i%len(conts)]
		err := r.time("server.body_decode_us", "us", time.Microsecond, func() error {
			req := httptest.NewRequest(http.MethodPost, "/tasks", bytes.NewReader(b.body))
			var lr server.LoadRequest
			if !server.DecodeJSONBody(httptest.NewRecorder(), req, server.DefaultMaxBodyBytes, &lr) {
				return errors.New("replay: load body rejected")
			}
			_, err := base64.StdEncoding.DecodeString(lr.VBS)
			return err
		})
		if err != nil {
			return err
		}
		_ = r.time("store.sha256_us", "us", time.Microsecond, func() error {
			store.DigestOf(b.data)
			return nil
		})
		var v *core.VBS
		if err := r.time("core.parse_us", "us", time.Microsecond, func() (err error) {
			v, err = core.Parse(b.data)
			return err
		}); err != nil {
			return err
		}
		if err := r.time("core.warm_us", "us", time.Microsecond, v.Warm); err != nil {
			return err
		}
	}
	for round := 0; round*len(fresh) < 256; round++ {
		st := store.New()
		for _, b := range fresh {
			if err := r.time("store.put_fresh_us", "us", time.Microsecond, func() error {
				_, _, err := st.Put(b.data)
				return err
			}); err != nil {
				return err
			}
		}
		for _, b := range fresh {
			if err := r.time("store.put_hit_us", "us", time.Microsecond, func() error {
				_, existed, err := st.Put(b.data)
				if err == nil && !existed {
					err = errors.New("replay: resident put not deduplicated")
				}
				return err
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayDecode times de-virtualization both ways — the daemon's
// parallel controller.DecodeVBS and the serial reference
// core.VBS.Decode — and checks they agree bit for bit on every
// container.
func replayDecode(r *replayResult, conts, _ []*blob) error {
	for round := 0; round*len(conts) < 192; round++ {
		for _, b := range conts {
			v, err := core.Parse(b.data)
			if err != nil {
				return err
			}
			var dec *controller.Decoded
			if err := r.time("devirt.decode_ms", "ms", time.Millisecond, func() (err error) {
				dec, err = controller.DecodeVBS(v, 0)
				return err
			}); err != nil {
				return err
			}
			var raw *bitstream.Raw
			if err := r.time("devirt.decode_serial_ms", "ms", time.Millisecond, func() (err error) {
				raw, err = v.Decode()
				return err
			}); err != nil {
				return err
			}
			if round == 0 {
				if err := sameConfig(dec, raw, v); err != nil {
					r.problems = append(r.problems, fmt.Sprintf("decode of %s: %v", b.digest[:12], err))
				}
			}
		}
	}
	return nil
}

// sameConfig compares the parallel decode with the serial reference
// macro by macro; a macro no entry configures must be all zero.
func sameConfig(dec *controller.Decoded, raw *bitstream.Raw, v *core.VBS) error {
	for y := 0; y < v.TaskH; y++ {
		for x := 0; x < v.TaskW; x++ {
			want := raw.At(x, y).Vec()
			got := dec.ConfigAt(x, y)
			if got == nil {
				if want.OnesCount() != 0 {
					return fmt.Errorf("macro (%d,%d) missing from the parallel decode", x, y)
				}
				continue
			}
			if !got.Vec().Equal(want) {
				return fmt.Errorf("macro (%d,%d) differs from the serial decode", x, y)
			}
		}
	}
	return nil
}

// replayPlacement times Controller.LoadDecodedPolicy and Unload on one
// 64×64 fabric held at the workload's occupancy: each fabric of the
// daemon carries the residentCap tasks of one client on average.
func replayPlacement(r *replayResult, conts, _ []*blob) error {
	f, err := fabric.New(arch.Params{W: benchW, K: benchK}, arch.Grid{Width: 64, Height: 64})
	if err != nil {
		return err
	}
	c := controller.New(f, 0)
	decs := make([]*controller.Decoded, len(conts))
	for i, b := range conts {
		v, err := core.Parse(b.data)
		if err != nil {
			return err
		}
		if decs[i], err = controller.DecodeVBS(v, 0); err != nil {
			return err
		}
	}
	pol := sched.Default()
	var resident []*controller.Task
	for i := 0; i < residentCap*clients/2; i++ {
		t, err := c.LoadDecodedPolicy(decs[i%len(decs)], pol)
		if err != nil {
			return fmt.Errorf("replay: fill fabric: %w", err)
		}
		resident = append(resident, t)
	}
	for i := 0; i < 500; i++ {
		// Unload a resident task, place a new one: the steady state
		// of a client at its residency cap.
		k := i * 7 % len(resident)
		if err := r.time("controller.unload_us", "us", time.Microsecond, func() error {
			return c.Unload(resident[k].ID)
		}); err != nil {
			return err
		}
		if err := r.time("controller.place_us", "us", time.Microsecond, func() (err error) {
			resident[k], err = c.LoadDecodedPolicy(decs[(i*5+3)%len(decs)], pol)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// replayTransport times a 16-op batch RPC over a loopback stream
// (Stream.Call against transport.Serve) and the frame codec alone:
// WriteFrame + ReadFrame of a raw container and of a flate-compressed
// batch reply.
func replayTransport(r *replayResult, conts, _ []*blob) error {
	var req server.BatchRequest
	var resp server.BatchResponse
	for i := 0; i < batchOps; i++ {
		b := conts[i%len(conts)]
		switch {
		case i%5 == 0:
			req.Ops = append(req.Ops, server.BatchOp{Op: "load", VBS: base64.StdEncoding.EncodeToString(b.data)})
			resp.Results = append(resp.Results, server.BatchResult{Status: http.StatusCreated, Load: &server.LoadResponse{Digest: b.digest, TaskW: b.w, TaskH: b.h}})
		case i%5 == 4:
			req.Ops = append(req.Ops, server.BatchOp{Op: "unload", ID: int64(i)})
			resp.Results = append(resp.Results, server.BatchResult{Status: http.StatusNoContent})
		default:
			req.Ops = append(req.Ops, server.BatchOp{Op: "get", Digest: b.digest})
			resp.Results = append(resp.Results, server.BatchResult{Status: http.StatusOK, VBS: base64.StdEncoding.EncodeToString(b.data)})
		}
	}
	reqBody, err := json.Marshal(req)
	if err != nil {
		return err
	}
	respBody, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	reply := transport.EncodeResult(http.StatusOK, respBody)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_ = transport.Serve(conn, transport.Handlers{
			Call: func([]byte) ([]byte, bool) { return reply, false },
		}, transport.Config{Compress: true})
	}()
	st := transport.Open(func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", l.Addr().String())
	}, transport.Config{Compress: true})
	// Closing the stream ends Serve; closing the listener ends an
	// Accept that never got a connection.
	defer func() {
		st.Close()
		l.Close()
		<-served
	}()
	msg := transport.EncodeMsg(transport.MsgBatch, reqBody)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 1100; i++ {
		var got []byte
		call := func() (err error) {
			got, err = st.Call(ctx, msg, false)
			return err
		}
		if i < 100 { // connect and settle before timing
			err = call()
		} else {
			err = r.time("transport.call_rtt_us", "us", time.Microsecond, call)
		}
		if err != nil {
			return fmt.Errorf("replay: stream call: %w", err)
		}
		if !bytes.Equal(got, reply) {
			r.problems = append(r.problems, "stream call returned a different reply")
			break
		}
	}

	var buf bytes.Buffer
	raw := conts[0].data
	for i := 0; i < 1000; i++ {
		if err := r.time("transport.frame_codec_us", "us", time.Microsecond, func() error {
			for _, f := range []struct {
				payload []byte
				flags   byte
			}{{raw, transport.FlagRaw}, {respBody, 0}} {
				buf.Reset()
				if _, _, err := transport.WriteFrame(&buf, transport.Frame{Type: transport.FrameData, Flags: f.flags, Seq: uint64(i), Payload: f.payload}, true); err != nil {
					return err
				}
				got, _, err := transport.ReadFrame(&buf, 0)
				if err != nil {
					return err
				}
				if !bytes.Equal(got.Payload, f.payload) {
					return errors.New("replay: frame round trip changed the payload")
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// replayRepo times repo.PutDigest (fsync'd) on blobs the repository
// has never stored and repo.Get of each, checking Get returns exactly
// what was stored, then repo.Open's recovery scan over the seeded data
// dir (or, without one, over the replay repository).
func replayRepo(r *replayResult, fresh []*blob, dir, template string) error {
	rp, err := repo.Open(dir, repo.Options{})
	if err != nil {
		return err
	}
	for _, b := range fresh {
		d := repo.DigestOf(b.data)
		if err := r.time("repo.put_ms", "ms", time.Millisecond, func() error {
			existed, err := rp.PutDigest(d, b.data)
			if err == nil && existed {
				err = errors.New("replay: fresh blob already stored")
			}
			return err
		}); err != nil {
			return err
		}
	}
	for i := 0; i < 8; i++ {
		for _, b := range fresh {
			var got []byte
			if err := r.time("repo.get_us", "us", time.Microsecond, func() (err error) {
				got, err = rp.Get(repo.DigestOf(b.data))
				return err
			}); err != nil {
				return err
			}
			if i == 0 && !bytes.Equal(got, b.data) {
				r.problems = append(r.problems, fmt.Sprintf("repo.Get of %s differs from what PutDigest stored", b.digest[:12]))
			}
		}
	}
	scanDir := template
	if scanDir == "" {
		scanDir = dir
	}
	for i := 0; i < 5; i++ {
		if err := r.time("repo.open_s", "s", time.Second, func() error {
			_, err := repo.Open(scanDir, repo.Options{ReadOnly: true})
			return err
		}); err != nil {
			return err
		}
	}
	return os.RemoveAll(dir)
}
