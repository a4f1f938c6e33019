package main

import (
	"strconv"
	"sync"
	"time"
)

// The reference box is a shared VM whose memory system changes speed by
// up to a factor of two for seconds to minutes at a time (a 128 MB
// stream takes 22 to 44 ms, a million small allocations 45 to 90 ms,
// while an ALU loop holds within 5 %). Set-up time, throughput, latency
// and CPU time per op all follow it, so raw timings of the same code
// disagree by 15 to 30 % between runs. The harness therefore times a
// fixed piece of plain Go work, the reference, right before every slice
// of ops and every set-up, and scales the timing that follows by
// refNominalMS / reference time. The scaled timings of identical code
// agree to a few percent (NOISE.md).

// refNominalMS is what the reference takes on the reference box in a
// quiet minute. It only fixes the scale of the reported timings, so that
// in a quiet minute they read as measured.
const refNominalMS = 62.0

// refCell is a small heap object with a pointer in it, like the engine's
// boxed values and group states.
type refCell struct {
	f    float64
	s    string
	next *refCell
}

// reference is work shaped like the engine's and independent of it: a
// stream over a buffer larger than L2, a million small allocations, and a
// string-keyed map, on every worker at once. It touches no code of the
// repository, so its time changes only with the machine.
type reference struct {
	bufs [][]float64
	sink []float64
}

// newReference sizes the work like the arrays: p.shrink divides a side.
func newReference(p params) *reference {
	r := &reference{bufs: make([][]float64, p.workers), sink: make([]float64, p.workers)}
	for w := range r.bufs {
		r.bufs[w] = make([]float64, (8<<20)/(p.shrink*p.shrink))
		for i := range r.bufs[w] {
			r.bufs[w][i] = float64(i % 1021)
		}
	}
	return r
}

// run does the reference work once and returns the milliseconds it took.
func (r *reference) run() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := range r.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.sink[w] = refWork(r.bufs[w])
		}()
	}
	wg.Wait()
	return float64(time.Since(t0)) / 1e6
}

func refWork(buf []float64) float64 {
	var sum float64
	for pass := 0; pass < 2; pass++ {
		for _, f := range buf {
			sum += f
		}
	}
	var head *refCell
	for i := 0; i < len(buf)/8; i++ {
		head = &refCell{f: float64(i), next: head}
		if i&63 == 0 {
			sum += head.f
			head = nil
		}
	}
	groups := make(map[string]*refCell)
	var key []byte
	for i := 0; i < len(buf)/64; i++ {
		key = strconv.AppendInt(key[:0], int64(i%4099), 10)
		g := groups[string(key)]
		if g == nil {
			g = &refCell{s: string(key)}
			groups[g.s] = g
		}
		g.f += buf[i]
	}
	return sum + float64(len(groups))
}

// speed returns the machine's speed relative to nominal, from the median
// of n reference runs: below 1 when the machine is slow. Timings are
// multiplied by it.
func (r *reference) speed(n int) float64 {
	ms := make([]float64, n)
	for i := range ms {
		ms[i] = r.run()
	}
	return refNominalMS / median(ms)
}
