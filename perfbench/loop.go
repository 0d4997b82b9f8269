package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// round is one unit of a workload's seeded request list. Its requests
// are served by the workload's clients in a closed loop (each client
// takes the next request when its previous one returns); finish does
// the system work that closes the round and is timed with it; check
// runs the output oracles afterwards, off the clock.
type round interface {
	size() int
	serve(client, j int) error
	finish() error
	// check returns, per request, nil or why its output is wrong, and
	// the fingerprint of the request's output.
	check(served []error) ([]error, []uint64)
}

type workload interface {
	clients() int
	// tailQ is the latency percentile reported as latency_tail_ms.
	tailQ() float64
	// heapRounds is how many leading rounds the heap is sampled in: a
	// fixed amount of work, so that serving more requests in the same
	// time does not read as using more memory.
	heapRounds() int
	// newRound prepares round r's inputs off the clock. base is the
	// global index of the round's first request; tr is nil for
	// untraced rounds.
	newRound(r, base int, tr *tracer) (round, error)
}

// phase is what one pass of rounds measured.
type phase struct {
	latMs     []float64
	hashes    []uint64
	attempted int
	failed    int
	failures  []string
	rounds    int
	elapsed   time.Duration
	// roundLens and roundRPS are each round's request count and its
	// requests over its measured time.
	roundLens []int
	roundRPS  []float64
	rt        rtAccum
}

const maxFailureNotes = 8

func (p *phase) fail(why string) {
	p.failed++
	if len(p.failures) < maxFailureNotes {
		p.failures = append(p.failures, why)
	}
}

// runPhase serves rounds until the clocked time reaches budget (when
// rounds < 0) or exactly `rounds` rounds. A round always runs to its end,
// so every phase covers a whole prefix of the request list. hp, if set,
// is timed before each round and between, if set, runs after each round
// with the clocked time so far, both off the clock.
func runPhase(w workload, budget time.Duration, rounds int, tr *tracer, hs *heapSampler, hp *hostProbe, between func(time.Duration) error) (*phase, error) {
	p := &phase{}
	for r := 0; ; r++ {
		if rounds >= 0 && r >= rounds || rounds < 0 && p.elapsed >= budget {
			return p, nil
		}
		rd, err := w.newRound(r, p.attempted, tr)
		if err != nil {
			return nil, fmt.Errorf("preparing round %d: %w", r, err)
		}
		n := rd.size()
		lat := make([]float64, n)
		served := make([]error, n)
		var next atomic.Int64
		var wg sync.WaitGroup
		if hp != nil {
			hp.measure()
		}
		before := readRuntime()
		if hs != nil && r < w.heapRounds() {
			hs.serving.Store(true)
		}
		start := time.Now()
		for c := 0; c < w.clients(); c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					j := int(next.Add(1) - 1)
					if j >= n {
						return
					}
					t := time.Now()
					served[j] = rd.serve(c, j)
					lat[j] = float64(time.Since(t)) / float64(time.Millisecond)
				}
			}(c)
		}
		wg.Wait()
		ferr := rd.finish()
		took := time.Since(start)
		p.elapsed += took
		p.roundLens = append(p.roundLens, n)
		p.roundRPS = append(p.roundRPS, float64(n)/took.Seconds())
		if hs != nil && r < w.heapRounds() {
			hs.serving.Store(false)
		}
		p.rt.add(before, readRuntime())
		p.rounds++

		bad, hashes := rd.check(served)
		if ferr != nil && served[n-1] == nil && bad[n-1] == nil {
			// The round's closing work failed: its last request did not
			// complete.
			bad[n-1] = fmt.Errorf("closing round %d: %w", r, ferr)
		}
		for j := 0; j < n; j++ {
			p.attempted++
			switch {
			case served[j] != nil:
				p.fail(fmt.Sprintf("request %d: %v", p.attempted-1, served[j]))
			case bad[j] != nil:
				p.fail(fmt.Sprintf("request %d: wrong output: %v", p.attempted-1, bad[j]))
			}
		}
		p.latMs = append(p.latMs, lat...)
		p.hashes = append(p.hashes, hashes...)
		if between != nil {
			if err := between(p.elapsed); err != nil {
				return nil, err
			}
		}
	}
}
