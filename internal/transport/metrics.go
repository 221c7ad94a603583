package transport

import (
	"sync/atomic"

	"repro/internal/metrics"
)

// Metrics aggregates transport activity for one daemon. Observation
// sites update plain atomics (every method is safe on a nil receiver,
// so tests can run bare streams); NewMetrics bridges them into a
// metrics.Registry as the vbs_transport_* families both daemons
// expose.
type Metrics struct {
	streamsOpen atomic.Int64
	dialFails   atomic.Uint64
	reconnects  atomic.Uint64

	framesSent atomic.Uint64
	framesRecv atomic.Uint64
	bytesSent  atomic.Uint64
	bytesRecv  atomic.Uint64

	// Payload accounting by encoding: flate counts post-compression
	// wire bytes, raw counts verbatim passthrough (already-compressed
	// VBS payloads and frames below the compression floor).
	flateSent atomic.Uint64
	rawSent   atomic.Uint64

	recvErrors atomic.Uint64

	batchTasks *metrics.Histogram
}

// NewMetrics registers the vbs_transport_* families on reg and
// returns the Metrics instance feeding them. Must be called from a
// constructor (registration panics on duplicates).
func NewMetrics(reg *metrics.Registry) *Metrics {
	m := &Metrics{}
	reg.GaugeFunc("vbs_transport_streams_open",
		"Transport streams currently connected (sending and receiving ends).",
		func() float64 { return float64(m.streamsOpen.Load()) })
	reg.CounterFunc("vbs_transport_dial_failures_total",
		"Failed stream dial attempts.",
		func() float64 { return float64(m.dialFails.Load()) })
	reg.CounterFunc("vbs_transport_reconnects_total",
		"Stream reconnects after a broken connection.",
		func() float64 { return float64(m.reconnects.Load()) })
	reg.CounterFunc("vbs_transport_frames_sent_total",
		"Frames written to transport streams.",
		func() float64 { return float64(m.framesSent.Load()) })
	reg.CounterFunc("vbs_transport_frames_received_total",
		"Frames read from transport streams.",
		func() float64 { return float64(m.framesRecv.Load()) })
	reg.CounterFunc("vbs_transport_bytes_sent_total",
		"Wire bytes written to transport streams, headers included.",
		func() float64 { return float64(m.bytesSent.Load()) })
	reg.CounterFunc("vbs_transport_bytes_received_total",
		"Wire bytes read from transport streams, headers included.",
		func() float64 { return float64(m.bytesRecv.Load()) })
	reg.CounterFunc("vbs_transport_sent_compressed_bytes_total",
		"Payload bytes shipped flate-compressed (post-compression size).",
		func() float64 { return float64(m.flateSent.Load()) })
	reg.CounterFunc("vbs_transport_sent_raw_bytes_total",
		"Payload bytes shipped verbatim (already-compressed VBS and small frames).",
		func() float64 { return float64(m.rawSent.Load()) })
	reg.CounterFunc("vbs_transport_recv_errors_total",
		"Receive-side frame decode failures.",
		func() float64 { return float64(m.recvErrors.Load()) })
	m.batchTasks = reg.Histogram("vbs_transport_batch_tasks",
		"Tasks per POST /tasks:batch request.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	return m
}

func (m *Metrics) streamUp() {
	if m != nil {
		m.streamsOpen.Add(1)
	}
}

func (m *Metrics) streamDown() {
	if m != nil {
		m.streamsOpen.Add(-1)
	}
}

func (m *Metrics) dialFail() {
	if m != nil {
		m.dialFails.Add(1)
	}
}

func (m *Metrics) reconnect() {
	if m != nil {
		m.reconnects.Add(1)
	}
}

// sent records one written frame of n wire bytes total; the payload
// portion (n minus the header) left with (compressed=true) or without
// flate, so the flate counter reflects post-compression size.
func (m *Metrics) sent(n int, compressed bool) {
	if m == nil {
		return
	}
	m.framesSent.Add(1)
	m.bytesSent.Add(uint64(n))
	payload := n - HeaderSize
	if payload < 0 {
		payload = 0
	}
	if compressed {
		m.flateSent.Add(uint64(payload))
	} else {
		m.rawSent.Add(uint64(payload))
	}
}

func (m *Metrics) received(n int) {
	if m == nil {
		return
	}
	m.framesRecv.Add(1)
	m.bytesRecv.Add(uint64(n))
}

func (m *Metrics) recvError() {
	if m != nil {
		m.recvErrors.Add(1)
	}
}

// ObserveBatch records a batch request's task count — fed by the
// daemons' /tasks:batch handlers (HTTP and stream alike).
func (m *Metrics) ObserveBatch(tasks int) {
	if m == nil || m.batchTasks == nil {
		return
	}
	m.batchTasks.Observe(float64(tasks))
}
