package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile:
// a percentile resting on fewer is mostly noise.
const minTail = 10

// tailPercentile returns the highest percentile at or below target that
// has at least minTail samples beyond it, and the nearest-rank value at
// that percentile. With fewer than 2*minTail samples no tail percentile
// is supported and the median is reported instead. sorted must be in
// ascending order; an empty slice yields (0, 0).
func tailPercentile(sorted []float64, target float64) (value, p float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	p = target
	if max := 1 - float64(minTail)/float64(n); max < p {
		p = max
	}
	if p < 0.5 {
		p = 0.5
	}
	return nearestRank(sorted, p), p
}

// nearestRank is the p-quantile by the nearest-rank rule: the smallest
// sample with at least a p share of the samples at or below it.
func nearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// median of an unsorted sample (copied, not reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, 0.5)
}

// latencies collects one kind of request latency in milliseconds, each
// with when its request started (Unix ns), so the sample can be cut
// into consecutive stretches of the run.
type latencies struct {
	ms []float64
	at []int64
}

func (l *latencies) add(start time.Time, d time.Duration) {
	l.ms = append(l.ms, float64(d)/1e6)
	l.at = append(l.at, start.UnixNano())
}

func (l *latencies) merge(o latencies) {
	l.ms = append(l.ms, o.ms...)
	l.at = append(l.at, o.at...)
}

// A latency percentile is reported as the median over consecutive
// stretches of the run, each holding stretchSamples or more requests,
// of the stretch's percentile. One stall of the shared machine then
// moves one stretch's figure, not the run's; a slowdown that lasts
// through most of the run still shows.
const (
	stretchSamples = 1000 // enough for a p99 with ten samples beyond it
	maxStretches   = 7
)

// stretches is how many stretches n samples make: the largest odd
// count up to maxStretches whose stretches hold stretchSamples each,
// and at least one.
func stretches(n int) int {
	k := min(maxStretches, n/stretchSamples)
	if k%2 == 0 {
		k--
	}
	return max(k, 1)
}

// summary returns the median and the tail latency nearest p99 that the
// sample supports (with the percentile it is), each as the median over
// the run's stretches, the sample count, and each stretch's tail.
func (l *latencies) summary() (p50, tail, tailP float64, n int, tails []float64) {
	n = len(l.ms)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return l.at[idx[a]] < l.at[idx[b]] })
	parts := stretches(n)
	var medians []float64
	for k := 0; k < parts; k++ {
		var s []float64
		for _, i := range idx[k*n/parts : (k+1)*n/parts] {
			s = append(s, l.ms[i])
		}
		sort.Float64s(s)
		var t float64
		t, tailP = tailPercentile(s, 0.99)
		tails = append(tails, t)
		medians = append(medians, nearestRank(s, 0.5))
	}
	return median(medians), median(tails), tailP, n, tails
}

// openLoop is a fixed schedule: request i is due at start+at[i],
// whether or not earlier requests have been answered. A request's
// latency runs from when it was due, not from when it was actually
// written, so a stall in the system (or in the generator) is charged to
// every request that queued behind it.
type openLoop struct {
	start time.Time
	at    []time.Duration
}

// evenly is n offsets gap apart, the first at offset.
func evenly(n int, gap, offset time.Duration) []time.Duration {
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = offset + time.Duration(i)*gap
	}
	return at
}

func (o openLoop) due(i int) time.Time { return o.start.Add(o.at[i]) }

// latency of request i answered at done.
func (o openLoop) latency(i int, done time.Time) time.Duration { return done.Sub(o.due(i)) }

// tally counts operations attempted and every way one can fail. Each
// failure kind counts once per operation; error_rate is their sum over
// the operations attempted.
type tally struct {
	attempted  int64 // batches sent + queries sent + values verified
	failed     int64 // batches refused by an error frame or a broken connection
	shed       int64 // acked batches the admission queue refused
	timedOut   int64 // requests with no answer by the end of the run
	badQueries int64 // queries answered with an error or the wrong shape
	mismatched int64 // verified values that differ from the reference
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.shed += o.shed
	t.timedOut += o.timedOut
	t.badQueries += o.badQueries
	t.mismatched += o.mismatched
}

// failures is the numerator of error_rate.
func (t tally) failures() int64 {
	return t.failed + t.shed + t.timedOut + t.badQueries + t.mismatched
}

// errorRate is failures over operations attempted (0 with nothing
// attempted).
func (t tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failures()) / float64(t.attempted)
}

// span is one timed interval: a generator request (send → answer) or
// one layer call of the replay phase. Times are nanoseconds since the
// run's clock origin. Spans of one request share Req; a replayed layer
// call's Parent is its request's root span.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	Conn    int    `json:"conn"`
	Kind    string `json:"kind,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Overlap bool   `json:"overlap,omitempty"`
	Count   int    `json:"count,omitempty"` // messages or reports the call handled
	Failed  bool   `json:"failed,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns, per span name, the summed self time of its spans:
// each span's duration minus the part of it that its child spans cover.
// Overlapping children are counted once, and a child's time outside its
// parent's interval is not subtracted.
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) that the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	c := append([][2]int64(nil), ivs...)
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total int64
	cur := lo
	for _, iv := range c {
		a, b := iv[0], iv[1]
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
