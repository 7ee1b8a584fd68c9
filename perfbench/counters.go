package main

import (
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The benchmark measures every layer from outside: it reads the
// process counters below immediately before and after a call into the
// layer and reports the difference. Nothing inside the program is
// instrumented.

const (
	metricAllocs = "/gc/heap/allocs:bytes"
	metricGCCPU  = "/cpu/classes/gc/total:cpu-seconds"
	metricSched  = "/sched/latencies:seconds"
)

// snapshot is the process state at one instant.
type snapshot struct {
	at     time.Time
	cpu    float64 // user+sys CPU seconds of the process (getrusage)
	allocs uint64  // cumulative heap bytes allocated
	gcCPU  float64 // cumulative estimated GC CPU seconds
	// sched holds the cumulative /sched/latencies bucket counts; every
	// goroutine that becomes runnable and is later scheduled adds one
	// sample (the runtime samples a fixed share of them).
	sched   []uint64
	buckets []float64
}

// probe reads snapshots. Its sample slice is reused between reads.
type probe struct{ samples []metrics.Sample }

func newProbe() *probe {
	return &probe{samples: []metrics.Sample{
		{Name: metricAllocs}, {Name: metricGCCPU}, {Name: metricSched},
	}}
}

func (p *probe) read() snapshot {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail for the calling process; a zero CPU
	// reading would only show as an implausible cpu_s.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(p.samples)
	s := snapshot{
		at:     time.Now(),
		cpu:    tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		allocs: p.samples[0].Value.Uint64(),
		gcCPU:  p.samples[1].Value.Float64(),
	}
	h := p.samples[2].Value.Float64Histogram()
	s.sched = append([]uint64(nil), h.Counts...)
	s.buckets = h.Buckets
	return s
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// delta is the work done between two snapshots.
type delta struct {
	wall    float64 // host seconds
	cpu     float64 // process CPU seconds
	allocMB float64 // heap MB allocated
	gcCPU   float64 // estimated GC CPU seconds
	// schedEvents counts /sched/latencies samples; schedWait estimates
	// their total runnable-to-running wait from the bucket midpoints.
	schedEvents float64
	schedWait   float64
}

func since(a, b snapshot) delta {
	d := delta{
		wall:    b.at.Sub(a.at).Seconds(),
		cpu:     b.cpu - a.cpu,
		allocMB: float64(b.allocs-a.allocs) / (1 << 20),
		gcCPU:   b.gcCPU - a.gcCPU,
	}
	for i := range b.sched {
		c := float64(b.sched[i] - a.sched[i])
		d.schedEvents += c
		d.schedWait += c * bucketMid(b.buckets[i], b.buckets[i+1])
	}
	return d
}

// bucketMid is the representative value of histogram bucket [lo, hi);
// an infinite edge is replaced by the finite one.
func bucketMid(lo, hi float64) float64 {
	switch {
	case math.IsInf(lo, -1):
		return math.Max(hi, 0)
	case math.IsInf(hi, 1):
		return lo
	}
	return (lo + hi) / 2
}

// rssSampler records the peak resident set of the process while it
// runs, polling /proc/self/statm every rssInterval.
type rssSampler struct {
	stop, done chan struct{}
	peak       int64 // bytes; written by the sampling goroutine until done closes
}

const rssInterval = 5 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.peak = rssBytes()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.peak = max(s.peak, rssBytes())
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak in MB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return float64(max(s.peak, rssBytes())) / (1 << 20)
}

// rssBytes is the current resident set, or the process's peak so far
// (getrusage) where /proc/self/statm cannot be read.
func rssBytes() int64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return pages * int64(os.Getpagesize())
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // see probe.read
	return ru.Maxrss << 10                          // Linux reports KiB
}
