package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host probe measures how fast the machine is running, so that the
// time metrics can be given at one reference speed.
//
// The machines the benchmark is sized for give it two cores of a shared
// host, whose speed changes by up to 2x, for seconds to minutes at a
// time, with the load of the host's other tenants: a fixed arithmetic
// loop alternates between about 78 and 155 ms on a 2-vCPU Intel Xeon at
// 2.0 GHz. A spell that covers a whole run moves every raw time of that
// run, by 30% or more. The probe is timed before every round and every
// boot, off the clock. It is the benchmark's own fixed code, allocates
// nothing, and runs after a forced GC with no request in flight, so the
// program under test does not change how long it takes; only the host
// does.
const (
	probeCores = 2
	// probeRef is the probe's 10th-percentile duration on the machine
	// above when it runs at its faster speed.
	probeRef = 8 * time.Millisecond
	// probeQ is the quantile of a run's probe durations that is compared
	// with probeRef. The fast side of the probe durations, like the fast
	// side of the rounds (fastQ), follows the host's speed at its best in
	// the run.
	probeQ = 0.1
)

// prober is one core's share of the probe: lookups in an
// open-addressing hash table, a sort and integer arithmetic, all in
// cache, then dependent random reads and writes over 8 MiB, which miss
// the caches as the pipeline's pointer-heavy data does. Its data is
// mapped outside the Go heap, so that it does not count in heap_peak_mb
// and the collector never scans it.
type prober struct {
	table    []uint64 // key+1, value pairs; key+1 == 0 marks a free slot
	keys     []uint64
	src, buf []int
	big      []uint64
	sink     uint64
}

const (
	probeTableBits = 14
	probeKeys      = 1 << 13
	probeSort      = 2048
	probeBig       = 1 << 20
)

func newProber(seed uint64) (*prober, error) {
	words := 2<<probeTableBits + probeKeys + 2*probeSort + probeBig
	mem, err := syscall.Mmap(-1, 0, words*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	all := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), words)
	next := func(n int) []uint64 {
		s := all[:n:n]
		all = all[n:]
		return s
	}
	ints := func(n int) []int { return unsafe.Slice((*int)(unsafe.Pointer(&next(n)[0])), n) }
	p := &prober{table: next(2 << probeTableBits), keys: next(probeKeys), src: ints(probeSort), buf: ints(probeSort), big: next(probeBig)}
	x := seed
	for i := range p.keys {
		x = x*6364136223846793005 + 1442695040888963407
		p.keys[i] = x >> 20
		j := p.slot(x >> 20)
		p.table[j], p.table[j+1] = x>>20+1, x
	}
	for i := range p.src {
		x = x*6364136223846793005 + 1442695040888963407
		p.src[i] = int(x >> 33)
	}
	return p, nil
}

// slot returns the index of k's pair in the table, or of the free slot
// where it belongs.
func (p *prober) slot(k uint64) int {
	const mask = 1<<probeTableBits - 1
	i := int(k * 0x9E3779B97F4A7C15 >> (64 - probeTableBits))
	for p.table[2*i] != 0 && p.table[2*i] != k+1 {
		i = (i + 1) & mask
	}
	return 2 * i
}

func (p *prober) run() {
	s := p.sink
	for rep := 0; rep < 10; rep++ {
		for _, k := range p.keys {
			s += p.table[p.slot(k)+1]
		}
		copy(p.buf, p.src)
		sort.Ints(p.buf)
		s += uint64(p.buf[len(p.buf)/2])
		x := s
		for i := 0; i < 100000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			x ^= x >> 17
		}
		s += x
	}
	const mask = probeBig - 1
	j := s
	for i := 0; i < 200000; i++ {
		j = (j*6364136223846793005 + 1442695040888963407) & mask
		p.big[j] += s
		s += p.big[(j*7)&mask]
	}
	p.sink = s
}

// hostProbe runs one prober per core at once and keeps every duration.
type hostProbe struct {
	ps    []*prober
	times []float64
}

func newHostProbe() (*hostProbe, error) {
	h := &hostProbe{}
	for c := 0; c < probeCores; c++ {
		p, err := newProber(uint64(c) + 1)
		if err != nil {
			return nil, fmt.Errorf("host probe: %w", err)
		}
		h.ps = append(h.ps, p)
	}
	return h, nil
}

// measure forces a GC, so that no collector work from the requests is
// still running, then times the probe.
func (h *hostProbe) measure() {
	runtime.GC()
	t := time.Now()
	var wg sync.WaitGroup
	for _, p := range h.ps {
		wg.Add(1)
		go func(p *prober) {
			defer wg.Done()
			p.run()
		}(p)
	}
	wg.Wait()
	h.times = append(h.times, float64(time.Since(t)))
}

// slowdown is how much slower than its reference the probe ran over the
// run. Raw times are divided by it.
func (h *hostProbe) slowdown() float64 {
	v, _ := quantile(h.times, probeQ)
	return v / float64(probeRef)
}
