package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// cpuTicks reads the machine-wide total and steal jiffies from
// /proc/stat; ok is false where the file or the steal column is
// missing (then every second counts as clean).
func cpuTicks() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user..steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stealSampler records the cumulative CPU ticks once per second from
// its start, so each second of a timed window gets its steal share.
type stealSampler struct {
	stop  chan struct{}
	done  chan struct{}
	ticks [][2]uint64 // cumulative {total, steal} at 0 s, 1 s, 2 s, ...
}

func startStealSampler() *stealSampler {
	s := &stealSampler{stop: make(chan struct{}), done: make(chan struct{})}
	total, steal, ok := cpuTicks()
	if !ok {
		close(s.done)
		return s
	}
	s.ticks = append(s.ticks, [2]uint64{total, steal})
	go func() {
		defer close(s.done)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if total, steal, ok := cpuTicks(); ok {
					s.ticks = append(s.ticks, [2]uint64{total, steal})
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns each whole second's steal share.
func (s *stealSampler) finish() []float64 {
	select {
	case <-s.done:
		return nil // no /proc/stat: nothing sampled
	default:
		close(s.stop)
		<-s.done
	}
	// The last, partial second ends now.
	if total, steal, ok := cpuTicks(); ok {
		s.ticks = append(s.ticks, [2]uint64{total, steal})
	}
	var out []float64
	for i := 1; i < len(s.ticks); i++ {
		dt := s.ticks[i][0] - s.ticks[i-1][0]
		ds := s.ticks[i][1] - s.ticks[i-1][1]
		out = append(out, newRatio(float64(ds), float64(dt), "").Value)
	}
	return out
}
