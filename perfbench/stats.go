package main

import (
	"math"
	"runtime"
	"sort"
	"time"

	"pdps/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the definition numpy and Python's "inclusive" method
// use). xs is sorted in place; an empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides, reading 0/0 as 0 so an idle layer reports zero work.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// memDelta is the runtime's allocation and GC activity over a window.
type memDelta struct {
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPause             time.Duration
}

func memSince(before *runtime.MemStats) memDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		gcCycles:   after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

func (d *memDelta) add(o memDelta) {
	d.allocBytes += o.allocBytes
	d.mallocs += o.mallocs
	d.gcCycles += o.gcCycles
	d.gcPause += o.gcPause
}

// retainedHeapMB collects garbage and returns the live heap in MB
// (10^6 bytes): what the process still holds at this point.
func retainedHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// heapSampler tracks the peak of the in-use heap while it runs. It
// reads runtime.MemStats on a ticker, so it is only started in traced
// runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		var m runtime.MemStats
		for {
			runtime.ReadMemStats(&m)
			if m.HeapInuse > h.peak {
				h.peak = m.HeapInuse
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / 1e6
}

// --- obs snapshot helpers ---

// counterSum totals a counter family over all its label sets.
func counterSum(s obs.Snapshot, name string) int64 {
	var n int64
	for _, p := range s.Counters {
		if p.Name == name {
			n += p.Value
		}
	}
	return n
}

// histMerge folds every series of a histogram family, across label sets
// and snapshots, into one point whose Quantile is exact to the bucket.
func histMerge(snaps []obs.Snapshot, name string) obs.HistogramPoint {
	out := obs.HistogramPoint{Name: name}
	buckets := map[int64]obs.Bucket{}
	for _, s := range snaps {
		for _, p := range s.Histograms {
			if p.Name != name || p.Count == 0 {
				continue
			}
			if out.Count == 0 || p.Min < out.Min {
				out.Min = p.Min
			}
			if p.Max > out.Max {
				out.Max = p.Max
			}
			out.Count += p.Count
			out.Sum += p.Sum
			for _, b := range p.Buckets {
				acc := buckets[b.Lo]
				acc.Lo, acc.Hi = b.Lo, b.Hi
				acc.N += b.N
				buckets[b.Lo] = acc
			}
		}
	}
	for _, b := range buckets {
		out.Buckets = append(out.Buckets, b)
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].Lo < out.Buckets[j].Lo })
	return out
}

// sumCounters totals a counter family across snapshots.
func sumCounters(snaps []obs.Snapshot, name string) float64 {
	var n int64
	for _, s := range snaps {
		n += counterSum(s, name)
	}
	return float64(n)
}
