package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const (
	heapInUse  = "/memory/classes/heap/objects:bytes"
	heapAllocs = "/gc/heap/allocs:bytes"
)

func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

// allocatedMB returns the bytes allocated on the heap since the process
// started (Go's TotalAlloc), in MB.
func allocatedMB() float64 { return readMetric(heapAllocs) / 1e6 }

// heapSampler samples heap-in-use at a fixed period until stopped.
// runtime/metrics reads do not stop the world, so sampling does not
// perturb the measured work.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	samples []float64
}

func startHeapSampler(period time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			h.mu.Lock()
			h.samples = append(h.samples, readMetric(heapInUse)/1e6)
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it and returns its samples (MB).
func (h *heapSampler) finish() []float64 {
	close(h.stop)
	<-h.done
	return h.samples
}
