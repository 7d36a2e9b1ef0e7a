package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"rtf/ldp"
)

// runConfig is one workload's fixed inputs and binaries.
type runConfig struct {
	wl       string
	seed     int64
	seconds  int
	serveBin string
	gwBin    string
	tmp      string
	tracer   *tracer

	boolIn *boolInputs
	domIn  *domainInputs
}

func (c *runConfig) domain() bool { return c.wl == wlDomainDashboard }

func (c *runConfig) makeInputs() error {
	var err error
	if c.domain() {
		c.domIn, err = makeDomainInputs(dashPreload, 400*c.seconds, c.seed)
	} else {
		c.boolIn, err = makeBoolInputs(boolPoolUsers, c.seed)
	}
	if err != nil {
		return err
	}
	return c.clients().pass()
}

// clients is the device-side timer; see clientTimer.
func (c *runConfig) clients() *clientTimer {
	if c.domain() {
		return c.domIn.clients
	}
	return c.boolIn.clients
}

// batches lists every pre-encoded batch; acks index into it.
func (c *runConfig) batches() []batch {
	if c.domain() {
		return c.domIn.all()
	}
	return c.boolIn.batches
}

// window is what the timed traffic produced, summed over connections.
type window struct {
	start, end time.Time
	ingestEnd  time.Time // last closing fence of a connection that carried batches
	acks       []int
	reports    int64
	wireBytes  int64
	ack        latencies
	ackOverlap latencies
	ackClear   latencies
	query      latencies
	lagMs      []float64
	t          tally
}

func (c *runConfig) traffic(tp *topology, tr *tracer) (*window, error) {
	bs := c.batches()
	front := tp.front()
	var act activity
	var results []connResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	spawn := func(f func() connResult) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := f()
			mu.Lock()
			results = append(results, r)
			mu.Unlock()
		}()
	}
	query := func(r *rand.Rand) openReq {
		if c.domain() {
			return openReq{q: domainQuery(r, c.domIn.hot), batch: -1}
		}
		return openReq{q: boolQuery(r), batch: -1}
	}
	// queries is one connection's schedule: seconds×qps queries, gap
	// apart from offset; with trickle, an acked batch a quarter gap
	// after every dashTrickleGap-th query, until the trickle runs out.
	queries := func(conn int, qps float64, offset time.Duration, trickle bool, start time.Time) ([]openReq, openLoop) {
		r := rng(c.seed, uint64(10+conn))
		n := c.seconds * int(qps)
		gap := time.Duration(float64(time.Second) / qps)
		var reqs []openReq
		var at []time.Duration
		next := 0 // the next trickle batch: they follow the preload
		if trickle {
			next = len(c.domIn.preload)
		}
		for i := 0; i < n; i++ {
			reqs = append(reqs, query(r))
			at = append(at, offset+time.Duration(i)*gap)
			if trickle && i%dashTrickleGap == dashTrickleGap-1 && next < len(bs) {
				reqs = append(reqs, openReq{batch: next})
				at = append(at, offset+time.Duration(i)*gap+gap/4)
				next++
			}
		}
		return reqs, openLoop{start: start, at: at}
	}
	start := time.Now().Add(20 * time.Millisecond)
	switch c.wl {
	case wlIngestDurable:
		// Two connections, each pacing half the batches over -seconds;
		// the second runs half a gap behind the first.
		rounds := roundsFor(c.seconds, durableRate, c.boolIn.reports)
		for conn := 0; conn < 2; conn++ {
			var order []int
			for r := 0; r < rounds; r++ {
				for i := conn; i < len(bs); i += 2 {
					order = append(order, i)
				}
			}
			pace := float64(len(order)) / float64(c.seconds)
			connStart := start.Add(time.Duration(float64(conn) / pace / 2 * float64(time.Second)))
			conn := conn
			spawn(func() connResult { return ingestClosed(front, false, bs, order, pace, connStart, &act, tr, conn) })
		}
	case wlGatewayMixed, wlReplicatedMixed:
		rate := float64(gatewayRate)
		if c.wl == wlReplicatedMixed {
			rate = replicatedRate
		}
		rounds := roundsFor(c.seconds, rate, c.boolIn.reports)
		var order []int
		for r := 0; r < rounds; r++ {
			for i := range bs {
				order = append(order, i)
			}
		}
		qps := float64(gatewayQPS)
		if c.wl == wlReplicatedMixed {
			qps = replicatedQPS
		}
		reqs, sched := queries(1, qps, 0, false, start)
		pace := float64(len(order)) / float64(c.seconds)
		spawn(func() connResult { return ingestClosed(front, false, bs, order, pace, start, &act, tr, 0) })
		spawn(func() connResult { return openLoopConn(front, false, sched, reqs, bs, &act, tr, 1) })
	case wlDomainDashboard:
		// The two connections' queries interleave half a gap apart, and
		// each trickle batch sits a quarter gap from either neighbour: a
		// fixed phase, so no run's acks happen to coincide with queries
		// more than another's.
		half := time.Second / dashQPS / 2
		r0, s0 := queries(0, dashQPS, 0, true, start)
		r1, s1 := queries(1, dashQPS, half, false, start)
		spawn(func() connResult { return openLoopConn(front, true, s0, r0, bs, &act, tr, 0) })
		spawn(func() connResult { return openLoopConn(front, true, s1, r1, bs, &act, tr, 1) })
	}
	wg.Wait()

	w := &window{acks: make([]int, len(bs))}
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		for i, n := range r.acks {
			w.acks[i] += n
		}
		w.reports += r.reports
		w.wireBytes += r.wireBytes
		w.ack.merge(r.ack)
		w.ackOverlap.merge(r.ackOverlap)
		w.ackClear.merge(r.ackClear)
		w.query.merge(r.query)
		w.lagMs = append(w.lagMs, r.lagMs...)
		w.t.add(r.t)
		if w.start.IsZero() || r.firstSend.Before(w.start) {
			w.start = r.firstSend
		}
		if r.fenced.After(w.end) {
			w.end = r.fenced
		}
		if r.ingest && r.fenced.After(w.ingestEnd) {
			w.ingestEnd = r.fenced
		}
	}
	return w, nil
}

// samples reads every process's counters.
func samples(ps []*proc) ([]procSample, error) {
	out := make([]procSample, len(ps))
	for i, p := range ps {
		s, err := p.sample()
		if err != nil {
			return nil, fmt.Errorf("sampling %s: %w", p.name, err)
		}
		out[i] = s
	}
	return out, nil
}

func cpuSeconds(a, b []procSample) float64 {
	var ticks int64
	for i := range a {
		ticks += b[i].ticks - a[i].ticks
	}
	return float64(ticks) / clockTicks
}

func rusageSeconds(ru syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// measure runs the workload once on a fresh topology.
func (c *runConfig) measure(tr *tracer) (*outcome, error) {
	o := &outcome{wl: c.wl, e2e: map[string]metric{}, ungated: map[string]metric{}, layer: map[string]metric{}, valid: true}
	tp := &topology{wl: c.wl, serveBin: c.serveBin, gwBin: c.gwBin, tmp: c.tmp, domain: c.domain()}
	if c.domain() {
		tp.hashSeed = c.domIn.hashSeed
	}
	defer tp.down()
	quiesce()
	if err := c.clients().pass(); err != nil {
		return nil, err
	}
	gap := c.gapWork()
	setupS, err := tp.setup(setupReps, gap)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	bs := c.batches()
	acks := make([]int, len(bs))
	var preAcks latencies
	if c.domain() {
		// The dashboard's population arrives before the query window,
		// paced. Its acks are the workload's ack latencies: the trickle
		// is too few acks for a tail (they are printed beside), and
		// each of them waits behind whatever queries its connection
		// has in flight.
		var act activity
		order := make([]int, len(c.domIn.preload))
		for i := range order {
			order[i] = i
		}
		pre := ingestClosed(tp.front(), true, bs, order, float64(len(order))/preloadSeconds, time.Now(), &act, nil, 0)
		if pre.err != nil {
			return nil, fmt.Errorf("preload: %w", pre.err)
		}
		o.t.add(pre.t)
		preAcks = pre.ack
		for i, n := range pre.acks {
			acks[i] += n
		}
	}

	runtime.GC()
	before, err := samples(tp.procs())
	if err != nil {
		return nil, err
	}
	steal0, total0 := hostSteal()
	var ru0, ru1 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	// No collections in the generator during the window (the window
	// allocates little); the memory limit is a backstop.
	gcPercent := debug.SetGCPercent(-1)
	memLimit := debug.SetMemoryLimit(2 << 30)
	w, err := c.traffic(tp, tr)
	debug.SetGCPercent(gcPercent)
	debug.SetMemoryLimit(memLimit)
	if err != nil {
		return nil, fmt.Errorf("traffic: %w", err)
	}
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	steal1, total1 := hostSteal()
	after, err := samples(tp.procs())
	if err != nil {
		return nil, err
	}
	o.t.add(w.t)
	for i, n := range w.acks {
		acks[i] += n
	}
	rss, err := sumHWM(tp.procs())
	if err != nil {
		return nil, err
	}
	quiesce()
	if err := c.clients().pass(); err != nil {
		return nil, err
	}
	// No queries run beside ingest-durable's ingest; its query latency is
	// read from the idle server in short open-loop phases, one after the
	// window and one after each restart, so that they spread over the run.
	var readBack func() error
	if c.wl == wlIngestDurable {
		r := rng(c.seed, 20)
		readBack = func() error {
			reqs := make([]openReq, idlePhaseQueries)
			for i := range reqs {
				reqs[i] = openReq{q: boolQuery(r), batch: -1}
			}
			quiesce()
			sched := openLoop{start: time.Now().Add(20 * time.Millisecond), at: evenly(len(reqs), time.Second/idleQPS, 0)}
			res := openLoopConn(tp.front(), false, sched, reqs, bs, &activity{}, tr, 2)
			if res.err != nil {
				return fmt.Errorf("idle queries: %w", res.err)
			}
			o.t.add(res.t)
			w.query.merge(res.query)
			w.lagMs = append(w.lagMs, res.lagMs...)
			return nil
		}
		if err := readBack(); err != nil {
			return nil, err
		}
	}

	// Verify every query shape, recover, verify again.
	var verifyT tally
	var correct func(string) (bool, error)
	var verify func() (tally, float64, error)
	if c.domain() {
		ref, err := c.domIn.reference(acks)
		if err != nil {
			return nil, err
		}
		top := c.domIn.topItems(acks, domTopK)
		verify = func() (tally, float64, error) { return verifyDomain(tp.front(), ref, c.domIn, acks, top) }
		want, err := ref.Answer(ldp.PointItemQuery(c.domIn.hot[0], domD))
		if err != nil {
			return nil, err
		}
		correct = domainCorrect(c.domIn.hot[0], want.Value)
	} else {
		ref, err := c.boolIn.reference(acks)
		if err != nil {
			return nil, err
		}
		truth := c.boolIn.truth(acks)
		verify = func() (tally, float64, error) { return verifyBool(tp.front(), ref, truth) }
		want, err := ref.EstimateAt(boolD)
		if err != nil {
			return nil, err
		}
		correct = boolCorrect(want)
	}
	vt, linf, err := verify()
	if err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	verifyT.add(vt)
	var walBytes int64
	if tp.dataDir != "" {
		if walBytes, err = dirBytes(tp.dataDir); err != nil {
			return nil, err
		}
	}

	var layerCtx *layerInputs
	if tr != nil {
		layerCtx = &layerInputs{tp: tp, w: w, before: before, after: after, walBytes: walBytes}
		if err := c.replay(layerCtx, o); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}

	reps := recoverReps
	if c.wl == wlIngestDurable {
		reps = durableRecoverReps
	}
	var recov []float64
	if err := c.clients().pass(); err != nil {
		return nil, err
	}
	quiesce()
	for i := 0; i < reps; i++ {
		if i > 0 {
			if err := gap(); err != nil {
				return nil, err
			}
		}
		s, ok, err := tp.recover(correct)
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		verifyT.attempted++
		if !ok {
			verifyT.mismatched++
		}
		recov = append(recov, s)
		if readBack != nil {
			if err := readBack(); err != nil {
				return nil, err
			}
		}
	}
	vt, _, err = verify()
	if err != nil {
		return nil, fmt.Errorf("verification after recovery: %w", err)
	}
	verifyT.add(vt)
	o.t.add(verifyT)
	if err := c.clients().pass(); err != nil {
		return nil, err
	}
	if layerCtx != nil && c.wl == wlIngestDurable {
		// The WAL replay is timed on the run's own data directory once
		// the restarted server is gone.
		tp.backends[0].kill()
		if err := c.replayWAL(tp.dataDir, o); err != nil {
			return nil, fmt.Errorf("WAL replay: %w", err)
		}
	}

	secs := w.end.Sub(w.start).Seconds()
	ingestSecs := w.ingestEnd.Sub(w.start).Seconds()
	ackLat := w.ack
	if c.domain() {
		ackLat = preAcks
		tp50, _, _, tn, _ := w.ack.summary()
		o.notes = append(o.notes, fmt.Sprintf("trickle acks       p50 %.4g ms, max %.4g ms over %d acked batches", tp50, slices.Max(w.ack.ms), tn))
	}
	ackP50, ackTail, ackP, ackN, ackParts := ackLat.summary()
	qP50, qTail, qP, qN, qParts := w.query.summary()
	sort.Float64s(w.lagMs)
	lagTail, lagP := tailPercentile(w.lagMs, 0.99)
	if time.Duration(lagTail*1e6) > maxLag {
		o.valid = false
		o.invalid = fmt.Sprintf("generator fell behind its open-loop schedule: lag p%.4g = %.3f ms > %v", lagP*100, lagTail, maxLag)
	}
	reports := w.reports
	if reports == 0 {
		return nil, fmt.Errorf("no reports were applied in the window")
	}
	e := o.e2e
	e["ingest_rps"] = metric{float64(reports) / ingestSecs, "reports/s"}
	e["ack_p50_ms"] = metric{ackP50, "ms"}
	e["server_cpu_s"] = metric{cpuSeconds(before, after), "s"}
	e["rss_peak_mb"] = metric{rss, "MB"}
	e["setup_s"] = metric{setupS, "s"}
	e["wire_bytes_per_report"] = metric{float64(w.wireBytes) / float64(reports), "B"}
	e["client_ns_per_period"] = metric{c.clients().nsPerPeriod(), "ns"}
	o.ungated["ack_p99_ms"] = metric{ackTail, "ms"}
	o.ungated["query_p50_ms"] = metric{qP50, "ms"}
	o.ungated["query_p99_ms"] = metric{qTail, "ms"}
	o.ungated["recovery_s"] = metric{median(recov), "s"}
	o.notes = append(o.notes,
		fmt.Sprintf("recoveries         %.4g s", recov),
		fmt.Sprintf("client cost        %.4g ns per period, each user's fastest of %.4g timings (whole passes and shares of passes) spread over the run", c.clients().nsPerPeriod(), c.clients().passes),
		fmt.Sprintf("window             %.3f s (ingest %.3f s), %d reports applied, %d batches acked", secs, ingestSecs, reports, len(w.ack.ms)),
		fmt.Sprintf("ack latency        p50 %.4g ms, p%.4g %.4g ms (median of stretches %.4g) over %d acked batches", ackP50, ackP*100, ackTail, ackParts, ackN),
		fmt.Sprintf("query latency      p50 %.4g ms, p%.4g %.4g ms (median of stretches %.4g) over %d queries%s", qP50, qP*100, qTail, qParts, qN, queryNote(c.wl)),
		fmt.Sprintf("linf_error         %.6g count (seed-specific: varies with the seed, not with the code)", linf),
		fmt.Sprintf("host steal         %.1f%% of CPU time during the window", 100*ratio(steal1-steal0, total1-total0)),
		fmt.Sprintf("loadgen lag        p%.4g %.4g ms over %d open-loop sends; loadgen cpu %.3f s", lagP*100, lagTail, len(w.lagMs), rusageSeconds(ru1)-rusageSeconds(ru0)),
	)
	if tr != nil {
		c.layerFromWindow(layerCtx, o, rusageSeconds(ru1)-rusageSeconds(ru0), lagTail)
		o.layer["linf_error"] = metric{linf, "count"}
	}
	return o, nil
}

// clientParts is how many shares of a client pass the gaps between
// repeated set-ups and restarts cycle through.
const clientParts = 4

// gapWork returns the work done between two repeated set-ups or
// restarts: the next share of a client pass. It spaces the repetitions
// out, and it times each user's device cost at many moments of the run
// (a user's cost is its fastest timing).
func (c *runConfig) gapWork() func() error {
	i := 0
	return func() error {
		err := c.clients().part(i%clientParts, clientParts)
		i++
		return err
	}
}

func queryNote(wl string) string {
	if wl == wlIngestDurable {
		return " (open loop, from due time, on the idle server after the window)"
	}
	return " (open loop, from due time)"
}

// quiesce readies the machine for a timed phase. It collects the
// generator's heap, so a collection does not land in one run's timing
// and not another's, and it writes back the dirty pages earlier work
// left (a durable run journals hundreds of MB), so the kernel's
// writeback does not compete with the phase.
func quiesce() {
	syscall.Sync()
	runtime.GC()
}
