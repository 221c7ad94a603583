package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending: percentile must sort
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.5, 50, true},
		{100, 0.9, 90, true},    // 10 samples beyond: allowed
		{100, 0.99, 0, false},   // 1 sample beyond
		{1000, 0.99, 990, true}, // exactly 10 beyond
		{999, 0.99, 0, false},   // rank 990, only 9 beyond
		{20, 0.5, 10, true},
		{19, 0.5, 0, false}, // rank 10, 9 beyond
		{0, 0.5, 0, false},
	}
	for _, c := range cases {
		in := seq(c.n)
		got, ok := percentile(in, c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
		if c.n > 0 && in[0] != float64(c.n) {
			t.Errorf("percentile reordered its input")
		}
	}
}

func TestMedianNoTailRule(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of even count = %g, want the lower middle 2", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %g", got)
	}
}

func parse(t *testing.T, text string) []metrics.Sample {
	t.Helper()
	s, err := metrics.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCounterDiffsSumDaemonsAndSkipBuckets(t *testing.T) {
	node := `vbs_repo_writes_total 5
vbs_server_op_duration_seconds_bucket{op="load",le="0.5"} 7
vbs_server_op_duration_seconds_sum{op="load"} 0.25
vbs_server_op_duration_seconds_count{op="load"} 7
`
	gw := `vbs_gateway_replicated_total 3
`
	before := counters{}
	before.add(parse(t, node))
	before.add(parse(t, node))
	if got := before["vbs_repo_writes_total"]; got != 10 {
		t.Errorf("two nodes' writes sum to %g, want 10", got)
	}
	for k := range before {
		if strings.Contains(k, "_bucket") {
			t.Errorf("bucket series %s kept; quantiles must not come from buckets", k)
		}
	}
	after := counters{}
	after.add(parse(t, strings.ReplaceAll(node, " 5\n", " 9\n")))
	after.add(parse(t, node))
	after.add(parse(t, gw))
	d := diff(before, after)
	if got := d["vbs_repo_writes_total"]; got != 4 {
		t.Errorf("writes delta = %g, want 4", got)
	}
	if got := d["vbs_gateway_replicated_total"]; got != 3 {
		t.Errorf("series absent before must count from zero: delta = %g, want 3", got)
	}
	key := seriesKey("vbs_server_op_duration_seconds_count", map[string]string{"op": "load"})
	if _, ok := d[key]; !ok {
		t.Errorf("histogram _count %s missing from counters", key)
	}
}

func TestRatioCarriesItsBase(t *testing.T) {
	r := newRatio(3, 4, "hits / lookups")
	if r.Value != 0.75 || r.Num != 3 || r.Den != 4 || r.Base != "hits / lookups" {
		t.Errorf("ratio = %+v", r)
	}
	z := newRatio(0, 0, "repairs / checks")
	if z.Value != 0 || z.Den != 0 || z.Base == "" || math.IsNaN(z.Value) {
		t.Errorf("0/0 must read 0 with its base kept, got %+v", z)
	}
}

func TestOnCPUTimeScalesBySteal(t *testing.T) {
	done := []completion{
		{at: 500 * time.Millisecond, ms: 2, ops: 1},
		{at: 1500 * time.Millisecond, ms: 2, ops: 1},
		{at: 2500 * time.Millisecond, ms: 2, ops: 1}, // second not sampled
	}
	steal := []float64{0, 0.25}
	got := onCPUTime(done, steal)
	if got[0].ms != 2 || got[1].ms != 1.5 || got[2].ms != 2 {
		t.Errorf("on-CPU round trips = %v, %v, %v; want 2, 1.5, 2", got[0].ms, got[1].ms, got[2].ms)
	}
	if done[1].ms != 2 {
		t.Error("onCPUTime modified its input")
	}
	// 225 ops over 1 + 0.75² + 0.1² seconds with both vCPUs running
	// (steal capped at 0.9).
	if rate := onCPURate([]float64{100, 75, 50}, []float64{0, 0.25, 1}); math.Abs(rate-225/1.5725) > 1e-9 {
		t.Errorf("on-CPU rate = %v; want %v (steal capped at %g)", rate, 225/1.5725, maxStealShare)
	}
}

func TestGroupedPercentileIsMedianOverGroups(t *testing.T) {
	var done []completion
	// Three groups of groupSize: p99s 10, 1000 (a burst), 12.
	for g, tail := range []float64{10, 1000, 12} {
		for i := 0; i < groupSize; i++ {
			ms := 1.0
			if i >= groupSize-20 {
				ms = tail
			}
			done = append(done, completion{at: time.Duration(g*groupSize+i) * time.Millisecond, ms: ms})
		}
	}
	v, groups, ok := groupedPercentile(done, 0.99)
	if !ok || groups != 3 || v != 12 {
		t.Errorf("grouped p99 = %g over %d groups (%v); want 12 over 3", v, groups, ok)
	}
	if _, _, ok := groupedPercentile(done[:groupSize-1], 0.99); ok {
		t.Error("grouped percentile of less than one group must not be reported")
	}
}

func TestKindMedianWeighsEachKindsMedian(t *testing.T) {
	var done []completion
	// 20 loads at 2 ms and 20 unloads at 0.3 ms, 3 of them slow: the
	// median over all 40 requests would sit among the slow unloads.
	for i := 0; i < 20; i++ {
		done = append(done, completion{ms: 2, kind: kLoad})
		ms := 0.3
		if i < 3 {
			ms = 1.5
		}
		done = append(done, completion{ms: ms, kind: kUnload})
	}
	// Too few puts for a median: left out.
	done = append(done, completion{ms: 50, kind: kPut})
	v, n, ok := kindMedian(done)
	if !ok || n != 40 || math.Abs(v-1.15) > 1e-9 {
		t.Errorf("kindMedian = %g over %d (%v); want 1.15 over 40", v, n, ok)
	}
	if _, _, ok := kindMedian(done[40:]); ok {
		t.Error("kindMedian of one put must not be reported")
	}
}
