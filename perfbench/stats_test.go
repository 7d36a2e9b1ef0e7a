package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

// The tail percentile is the highest one with at least ten samples
// beyond it, capped at the target.
func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n       int
		wantP   float64
		wantVal float64
	}{
		{n: 2000, wantP: 0.99, wantVal: 1980}, // 20 samples beyond p99
		{n: 1000, wantP: 0.99, wantVal: 990},  // exactly 10 beyond
		{n: 500, wantP: 0.98, wantVal: 490},   // p99 would leave 5: fall back to p98
		{n: 100, wantP: 0.90, wantVal: 90},
		{n: 20, wantP: 0.5, wantVal: 10},
		{n: 12, wantP: 0.5, wantVal: 6}, // no tail supported: the median
	}
	for _, c := range cases {
		s := seq(c.n)
		v, p := tailPercentile(s, 0.99)
		if p != c.wantP || v != c.wantVal {
			t.Errorf("n=%d: got p%.4g=%v, want p%.4g=%v", c.n, p*100, v, c.wantP*100, c.wantVal)
		}
		beyond := 0
		for _, x := range s {
			if x > v {
				beyond++
			}
		}
		if p > 0.5 && beyond < minTail {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", c.n, beyond)
		}
	}
	if v, p := tailPercentile(nil, 0.99); v != 0 || p != 0 {
		t.Errorf("empty sample: got (%v, %v)", v, p)
	}
}

// A stall is charged to every request that queued behind it: latency
// runs from the due time, so requests sent late (because the one
// connection was blocked) still count their wait.
// The tail is the median of consecutive stretches' tails: a stall that
// stays inside one stretch does not set it, a slowdown that lasts
// through most stretches does. The median is taken the same way.
func TestTailIsMedianOfStretches(t *testing.T) {
	for n, want := range map[int]int{500: 1, 2999: 1, 3000: 3, 4999: 3, 5000: 5, 7000: 7, 100000: 7} {
		if got := stretches(n); got != want {
			t.Errorf("stretches(%d) = %d, want %d", n, got, want)
		}
	}
	run := func(slow func(i int) bool) float64 {
		var l latencies
		start := time.Unix(0, 0)
		for i := 0; i < 5000; i++ {
			d := time.Millisecond
			if slow(i) {
				d = 50 * time.Millisecond
			}
			l.add(start.Add(time.Duration(i)*time.Millisecond), d)
		}
		p50, tail, p, n, tails := l.summary()
		if n != 5000 || len(tails) != 5 || p != 0.99 || p50 != 1 {
			t.Fatalf("summary: n=%d, %d stretches, p=%v, p50=%v", n, len(tails), p, p50)
		}
		return tail
	}
	// A stall: 50 slow requests in a row, all in the second stretch.
	if tail := run(func(i int) bool { return i >= 1500 && i < 1550 }); tail != 1 {
		t.Errorf("one stalled stretch set the tail: %v ms", tail)
	}
	// A slowdown: every 50th request slow, all through the run.
	if tail := run(func(i int) bool { return i%50 == 0 }); tail != 50 {
		t.Errorf("a slowdown through the run did not show: %v ms", tail)
	}
}

func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	start := time.Unix(0, 0)
	o := openLoop{start: start, at: evenly(20, time.Millisecond, 0)}
	service := func(i int) time.Duration {
		if i == 3 {
			return 50 * time.Millisecond // the stall
		}
		return 100 * time.Microsecond
	}
	// One FIFO connection: each request starts when it is due or when the
	// previous one finished, whichever is later.
	var free time.Time = start
	var lat latencies
	var fromSend []time.Duration
	for i := 0; i < 20; i++ {
		sent := o.due(i)
		if free.After(sent) {
			sent = free
		}
		done := sent.Add(service(i))
		free = done
		lat.add(o.due(i), o.latency(i, done))
		fromSend = append(fromSend, done.Sub(sent))
	}
	// Request 4 was due at 4ms but could only start at 53.1ms.
	if got := lat.ms[4]; got < 49 {
		t.Fatalf("request behind the stall: latency %.3fms, want >= 49ms", got)
	}
	if fromSend[4] > time.Millisecond {
		t.Fatalf("test setup: send-to-answer time %v should hide the stall", fromSend[4])
	}
	queued := 0
	for i := 4; i < 20; i++ {
		if lat.ms[i] > 1 {
			queued++
		}
	}
	if queued != 16 {
		t.Fatalf("%d of 16 requests behind the stall were charged for it", queued)
	}
}

func TestErrorRateAccounting(t *testing.T) {
	var tl tally
	tl.add(tally{attempted: 100, shed: 2, failed: 1})
	tl.add(tally{attempted: 50, timedOut: 1, badQueries: 3})
	tl.add(tally{attempted: 850, mismatched: 3})
	if got := tl.failures(); got != 10 {
		t.Fatalf("failures = %d, want 10", got)
	}
	if got := tl.errorRate(); got != 0.01 {
		t.Fatalf("error rate = %v, want 0.01", got)
	}
	if (tally{}).errorRate() != 0 {
		t.Fatal("error rate with nothing attempted should be 0")
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "decode", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "apply", Start: 25, End: 60}, // overlaps decode by 5
		{ID: 4, Parent: 3, Name: "journal", Start: 40, End: 50},
		{ID: 5, Parent: 1, Name: "answer", Start: 90, End: 120}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"request": 100 - (60 - 10) - (100 - 90),
		"decode":  20,
		"apply":   35 - 10,
		"journal": 10,
		"answer":  30,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

// A user's cost is its fastest pass, whichever pass that was.
func TestClientTimerKeepsEachUsersFastestPass(t *testing.T) {
	times := [][]time.Duration{ // per pass, per user
		{30, 10, 50},
		{20, 40, 50},
		{60, 15, 40},
	}
	pass := 0
	ct := newClientTimer(3, 2, func(u int) (time.Duration, error) { return times[pass][u], nil })
	for ; pass < len(times); pass++ {
		if err := ct.pass(); err != nil {
			t.Fatal(err)
		}
	}
	if want := float64(20+10+40) / (3 * 2); ct.nsPerPeriod() != want || ct.passes != 3 {
		t.Fatalf("nsPerPeriod = %v after %v passes, want %v after 3", ct.nsPerPeriod(), ct.passes, want)
	}
}

// The shares of a pass time each user once per cycle through them, and
// a user's cost is still its fastest timing, whole pass or share.
func TestClientTimerPartsCoverEveryUserOnce(t *testing.T) {
	calls := make([]int, 6)
	cost := time.Duration(50)
	ct := newClientTimer(6, 1, func(u int) (time.Duration, error) {
		calls[u]++
		return cost + time.Duration(u), nil
	})
	if err := ct.pass(); err != nil {
		t.Fatal(err)
	}
	cost = 10
	for part := 0; part < 4; part++ {
		if err := ct.part(part, 4); err != nil {
			t.Fatal(err)
		}
	}
	for u, n := range calls {
		if n != 2 {
			t.Errorf("user %d timed %d times, want 2", u, n)
		}
	}
	if want := float64(6*10+0+1+2+3+4+5) / 6; ct.nsPerPeriod() != want || ct.passes != 2 {
		t.Fatalf("nsPerPeriod = %v after %v passes, want %v after 2", ct.nsPerPeriod(), ct.passes, want)
	}
}
