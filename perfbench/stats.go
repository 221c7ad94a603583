package main

import (
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is one or two outliers, not a
// percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples (the
// smallest sample with at least q of all samples at or below it). ok
// is false when fewer than minBeyond samples lie beyond that rank, so
// a p99 needs at least 1000 samples and a p50 at least 20.
func percentile(samples []float64, q float64) (v float64, ok bool) {
	n := len(samples)
	if n == 0 || q <= 0 || q > 1 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], true
}

// median is percentile(samples, 0.5) without the tail rule, for
// small replay and set-up series where the median is the only figure
// reported.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[(len(s)+1)/2-1]
}

// counters maps a series key (name plus sorted labels) to its value,
// summed over every daemon scraped.
type counters map[string]float64

// seriesKey renders a sample's identity: name{k=v,...} with labels in
// sorted order, so the same series from two daemons adds up.
func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k + "=" + labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// add folds one daemon's scrape into c. Histogram buckets are skipped:
// the benchmark reads histograms only through _sum and _count.
func (c counters) add(samples []metrics.Sample) {
	for _, s := range samples {
		if strings.HasSuffix(s.Name, "_bucket") {
			continue
		}
		c[seriesKey(s.Name, s.Labels)] += s.Value
	}
}

// diff returns after minus before for every series in after; a series
// absent before (a daemon without that family) counts from zero.
func diff(before, after counters) counters {
	out := counters{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// ratio is a derived figure reported together with its base, so a
// reader can tell 0/0 from 0/9000.
type ratio struct {
	Value float64 `json:"value"`
	Num   float64 `json:"num"`
	Den   float64 `json:"den"`
	Base  string  `json:"base"`
}

// newRatio divides num by den; a zero denominator yields 0 (the
// counted work never happened), with the base still recorded.
func newRatio(num, den float64, base string) ratio {
	r := ratio{Num: num, Den: den, Base: base}
	if den != 0 {
		r.Value = num / den
	}
	return r
}

// windowRates splits the timed window into consecutive windows of
// length w and returns each full window's ops per second.
func windowRates(done []completion, w, wall time.Duration) []float64 {
	n := int(wall / w)
	ops := make([]int, n)
	for _, c := range done {
		if i := int(c.at / w); i < n {
			ops[i] += c.ops
		}
	}
	rates := make([]float64, n)
	for i, k := range ops {
		rates[i] = float64(k) / w.Seconds()
	}
	return rates
}

// groupSize is the request count of one latency group: the smallest
// that still leaves minBeyond samples above a p99.
const groupSize = 1000

// groupedPercentile splits the requests, in completion order, into
// consecutive groups of groupSize, takes each full group's
// nearest-rank q-quantile and returns the median over groups with the
// group count. A burst of interference then moves one group's figure,
// not the result. ok is false with no full group.
func groupedPercentile(done []completion, q float64) (v float64, groups int, ok bool) {
	byTime := append([]completion(nil), done...)
	sort.Slice(byTime, func(i, j int) bool { return byTime[i].at < byTime[j].at })
	var per []float64
	for i := 0; i+groupSize <= len(byTime); i += groupSize {
		ms := make([]float64, groupSize)
		for j := range ms {
			ms[j] = byTime[i+j].ms
		}
		if g, ok := percentile(ms, q); ok {
			per = append(per, g)
		}
	}
	if len(per) == 0 {
		return 0, 0, false
	}
	return median(per), len(per), true
}

// maxStealShare caps the steal share a correction divides by, so a
// second the hypervisor nearly took whole cannot blow a figure up.
const maxStealShare = 0.9

// stealShare returns the steal share of second i (0 when unsampled).
func stealShare(steal []float64, i int) float64 {
	if i < 0 || i >= len(steal) {
		return 0
	}
	return min(steal[i], maxStealShare)
}

// onCPUTime scales each request's round trip by the share of CPU time
// the hypervisor left the machine in the second it completed: the
// round trip the request would have had with the CPUs to itself.
func onCPUTime(done []completion, steal []float64) []completion {
	out := make([]completion, len(done))
	for i, c := range done {
		c.ms *= 1 - stealShare(steal, int(c.at/time.Second))
		out[i] = c
	}
	return out
}

// bothRunning is the share of a second in which both vCPUs ran when
// the hypervisor took share s of each: (1 − s)². Every request and
// every set-up is handed between processes spread over both vCPUs of
// the 2-vCPU machine the benchmark is sized for, so a stolen vCPU
// stalls the work waiting on it on the other one too. On such a VM,
// runs at steal up to 0.33 lost throughput and set-up speed as
// (1 − s)², on all three workloads; the request median, which a
// stall reaches less often, moved as 1 − s (onCPUTime).
func bothRunning(s float64) float64 { return (1 - s) * (1 - s) }

// onCPURate is the window's rate on CPU time: the ops of every whole
// second over the time both vCPUs ran in them.
func onCPURate(rates, steal []float64) float64 {
	var ops, cpu float64
	for i, r := range rates {
		ops += r
		cpu += bothRunning(stealShare(steal, i))
	}
	if cpu == 0 {
		return 0
	}
	return ops / cpu
}

// kindMedian is the typical round trip of a request of its own kind:
// each request kind's nearest-rank median, weighted by the kind's
// request count, with that count as n. Kinds too rare for a median are
// left out; ok is false when none is left. A median over all requests
// falls in the gap between kinds of different cost when they are about
// equally common (node-cold alternates 2-ms loads and 0.3-ms
// unloads), where a few slow requests of the fast kind move it far;
// each kind's own median does not move that way.
func kindMedian(done []completion) (v float64, n int, ok bool) {
	var sum float64
	for k := opKind(0); k < nKinds; k++ {
		ms := kindMS(done, k)
		if p50, ok := percentile(ms, 0.5); ok {
			sum += p50 * float64(len(ms))
			n += len(ms)
		}
	}
	if n == 0 {
		return 0, 0, false
	}
	return sum / float64(n), n, true
}

// kindMS returns the round trips of one request kind.
func kindMS(done []completion, k opKind) []float64 {
	var ms []float64
	for _, c := range done {
		if c.kind == k {
			ms = append(ms, c.ms)
		}
	}
	return ms
}
