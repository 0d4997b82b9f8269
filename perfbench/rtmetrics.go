package main

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// Runtime-layer sampling from runtime/metrics (no pprof): GC CPU share,
// scheduler wait and allocation volume are accumulated only while
// requests are being served, and the live heap is recorded after every
// GC cycle.
const (
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU = "/cpu/classes/total:cpu-seconds"
	mAllocs   = "/gc/heap/allocs:bytes"
	mSched    = "/sched/latencies:seconds"
	mHeap     = "/gc/heap/live:bytes"
	mCycles   = "/gc/cycles/total:gc-cycles"
)

type rtSnap struct {
	gcCPU, totalCPU float64
	alloc           uint64
	sched           []uint64
	buckets         []float64
}

func readRuntime() rtSnap {
	s := []metrics.Sample{{Name: mGCCPU}, {Name: mTotalCPU}, {Name: mAllocs}, {Name: mSched}}
	metrics.Read(s)
	h := s[3].Value.Float64Histogram()
	return rtSnap{
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		alloc:    s[2].Value.Uint64(),
		sched:    append([]uint64(nil), h.Counts...),
		buckets:  h.Buckets,
	}
}

// rtAccum sums runtime deltas over the serving windows of a run.
type rtAccum struct {
	gcCPU, totalCPU float64
	alloc           uint64
	sched           []uint64
	buckets         []float64
}

func (a *rtAccum) add(before, after rtSnap) {
	a.gcCPU += after.gcCPU - before.gcCPU
	a.totalCPU += after.totalCPU - before.totalCPU
	a.alloc += after.alloc - before.alloc
	if a.sched == nil {
		a.sched = make([]uint64, len(after.sched))
		a.buckets = after.buckets
	}
	for i := range after.sched {
		a.sched[i] += after.sched[i] - before.sched[i]
	}
}

func (a *rtAccum) gcFrac() float64 {
	if a.totalCPU <= 0 {
		return 0
	}
	return a.gcCPU / a.totalCPU
}

// schedP99 is the upper bound of the histogram bucket holding the 99th
// percentile goroutine scheduling latency, in seconds.
func (a *rtAccum) schedP99() float64 {
	var n uint64
	for _, c := range a.sched {
		n += c
	}
	if n == 0 {
		return 0
	}
	want := (n*99 + 99) / 100
	var seen uint64
	for i, c := range a.sched {
		seen += c
		if seen >= want {
			return a.buckets[i+1]
		}
	}
	return a.buckets[len(a.buckets)-1]
}

// heapSampler records the live heap (what the last GC cycle marked
// live) once per GC cycle that ends while serving is set. Live heap,
// unlike the current heap size, does not depend on how far the collector
// let garbage accumulate.
type heapSampler struct {
	serving atomic.Bool
	stop    chan struct{}
	wg      sync.WaitGroup
	mu      sync.Mutex
	live    []float64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: mHeap}, {Name: mCycles}}
		var seen uint64
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				metrics.Read(s)
				cycles := s[1].Value.Uint64()
				if cycles == seen {
					continue
				}
				seen = cycles
				if h.serving.Load() {
					h.mu.Lock()
					h.live = append(h.live, float64(s[0].Value.Uint64()))
					h.mu.Unlock()
				}
			}
		}
	}()
	return h
}

// samples returns the live-heap sizes recorded so far.
func (h *heapSampler) samples() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.live...)
}

// close stops the sampler and waits for its goroutine to exit.
func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}
