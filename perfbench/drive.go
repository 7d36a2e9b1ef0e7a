package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rtf/internal/transport"
	"rtf/ldp"
)

// The generator's side of the wire: closed-loop ingest connections,
// open-loop query (and trickle) connections, fences and verification.

// tracer keeps spans in memory; a nil tracer records nothing.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func (t *tracer) ns(x time.Time) int64 { return int64(x.Sub(t.origin)) }

// add records s with a fresh ID and returns the ID (0 when off).
func (t *tracer) add(s span) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = int64(len(t.spans) + 1)
	t.spans = append(t.spans, s)
	return s.ID
}

// activity tells an ingest connection whether a query was in flight
// while one of its batches was: queries in flight, plus a counter of
// query sends and answers.
type activity struct {
	inflight atomic.Int64
	events   atomic.Int64
}

// connResult is what one generator connection observed.
type connResult struct {
	acks       []int // per batch index: times acked as applied
	reports    int64 // reports in applied batches
	wireBytes  int64
	ack        latencies
	ackOverlap latencies
	ackClear   latencies
	query      latencies
	lagMs      []float64 // open loop: how late each send went out
	t          tally
	firstSend  time.Time
	fenced     time.Time // closing fence answered
	ingest     bool      // the connection carried acked batches
	err        error
}

// frontConn is one framed connection to the topology's front.
type frontConn struct {
	c      net.Conn
	w      *bufio.Writer
	enc    *transport.Encoder
	dec    *transport.Decoder
	domain bool
}

func dialFront(addr string, domain bool) (*frontConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(c, 64<<10)
	return &frontConn{c: c, w: w, enc: transport.NewEncoder(w), dec: transport.NewDecoder(c), domain: domain}, nil
}

func (f *frontConn) close() { _ = f.c.Close() }

// send writes a pre-encoded frame or a query message and flushes.
func (f *frontConn) send(frame []byte, q transport.Msg) error {
	if frame != nil {
		if err := f.enc.Flush(); err != nil {
			return err
		}
		if _, err := f.w.Write(frame); err != nil {
			return err
		}
		return f.w.Flush()
	}
	if err := f.enc.Encode(q); err != nil {
		return err
	}
	if err := f.enc.Flush(); err != nil {
		return err
	}
	return f.w.Flush()
}

// fence round-trips a trivial query: its answer proves the front (and,
// through a gateway's session, every backend) applied everything sent
// earlier on this connection.
func (f *frontConn) fence() error {
	if f.domain {
		if err := f.send(nil, transport.DomainQuery(transport.QueryPointItem, 0, 1, 0, 0)); err != nil {
			return err
		}
		_, err := f.dec.ReadDomainAnswer()
		return err
	}
	if err := f.send(nil, transport.Query(1)); err != nil {
		return err
	}
	m, err := f.dec.Next()
	if err == nil && m.Type != transport.MsgEstimate {
		err = fmt.Errorf("fence answered with message type %d", m.Type)
	}
	return err
}

// readQuery reads one query's answer and checks its shape.
func (f *frontConn) readQuery(q transport.Msg) error {
	if f.domain {
		a, err := f.dec.ReadDomainAnswer()
		if err != nil {
			return err
		}
		if a.Kind != q.Kind || len(a.Values) == 0 {
			return fmt.Errorf("%s query answered as %s with %d values", q.Kind, a.Kind, len(a.Values))
		}
		return nil
	}
	a, err := f.dec.ReadAnswer()
	if err != nil {
		return err
	}
	if a.Kind != q.Kind || len(a.Values) == 0 {
		return fmt.Errorf("%s query answered as %s with %d values", q.Kind, a.Kind, len(a.Values))
	}
	return nil
}

// ingestClosed sends batches[order[i]] one at a time, each after the
// previous ack, then fences. Acked batches are what the reference is
// fed. With rate > 0 (batches/s) the loop also waits until batch i is
// due at start+i/rate: a closed loop with think time, offering a fixed
// load instead of saturating the machine.
func ingestClosed(addr string, domain bool, batches []batch, order []int, rate float64, start time.Time, act *activity, tr *tracer, conn int) connResult {
	res := connResult{acks: make([]int, len(batches)), ingest: true}
	f, err := dialFront(addr, domain)
	if err != nil {
		res.err = err
		return res
	}
	defer f.close()
	res.firstSend = time.Now()
	for i, bi := range order {
		if rate > 0 {
			sleepUntil(start.Add(time.Duration(float64(i) / rate * float64(time.Second))))
		}
		b := batches[bi]
		e0, q0 := act.events.Load(), act.inflight.Load()
		sent := time.Now()
		res.t.attempted++
		err := f.send(b.frame, transport.Msg{})
		var applied bool
		if err == nil {
			applied, err = f.dec.ReadBatchAck()
		}
		done := time.Now()
		if err != nil {
			res.t.failed++
			res.t.timedOut += int64(len(order) - i - 1)
			res.err = fmt.Errorf("batch %d: %w", i, err)
			return res
		}
		overlap := q0 > 0 || act.events.Load() != e0
		d := done.Sub(sent)
		res.ack.add(sent, d)
		if overlap {
			res.ackOverlap.add(sent, d)
		} else {
			res.ackClear.add(sent, d)
		}
		if tr != nil {
			tr.add(span{Req: int64(conn)<<32 | int64(i), Name: "gen.batch", Conn: conn, Kind: "batch",
				Start: tr.ns(sent), End: tr.ns(done), Overlap: overlap, Count: b.msgs, Failed: !applied})
		}
		if !applied {
			res.t.shed++
			continue
		}
		res.acks[bi]++
		res.reports += int64(b.reports)
		res.wireBytes += int64(len(b.frame))
	}
	res.t.attempted++
	if err := f.fence(); err != nil {
		res.t.badQueries++
		res.err = fmt.Errorf("closing fence: %w", err)
		return res
	}
	res.fenced = time.Now()
	return res
}

// sleepUntil blocks until t in a nanosleep system call. An idle Go
// program's timers wake through the network poller, whose wait is
// counted in whole milliseconds, so time.Sleep here sends up to a
// millisecond or more late, and an open loop would charge that to the
// system as latency. The calling goroutine keeps its thread while it
// sleeps; the thread does not count against GOMAXPROCS.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// openReq is one scheduled request of an open-loop connection: a query,
// or (batch >= 0) an acked batch of the trickle.
type openReq struct {
	q     transport.Msg
	batch int
}

// maxLag is how late the generator may send before a run is invalid:
// beyond it the latencies measure the generator, not the system.
const maxLag = 20 * time.Millisecond

// openLoopConn sends reqs on a fixed schedule, without waiting for
// answers, and reads the answers in order on a second goroutine.
// Query latency runs from each query's due time; batch ack latency from
// the batch's actual send.
func openLoopConn(addr string, domain bool, sched openLoop, reqs []openReq, batches []batch, act *activity, tr *tracer, conn int) connResult {
	res := connResult{acks: make([]int, len(batches))}
	f, err := dialFront(addr, domain)
	if err != nil {
		res.err = err
		return res
	}
	defer f.close()
	type pend struct {
		i         int
		due, sent time.Time
		busy      bool // a query was in flight when the batch went out
	}
	// Sized to the whole schedule so the writer never blocks on the
	// reader: a blocked writer would stop sending on time.
	pending := make(chan pend, len(reqs))
	var wg sync.WaitGroup
	var writeErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(pending)
		for i, rq := range reqs {
			due := sched.due(i)
			sleepUntil(due)
			sent := time.Now()
			var frame []byte
			busy := false
			if rq.batch >= 0 {
				frame = batches[rq.batch].frame
				busy = act.inflight.Load() > 0
			} else {
				act.inflight.Add(1)
				act.events.Add(1)
			}
			if err := f.send(frame, rq.q); err != nil {
				writeErr = err
				return
			}
			pending <- pend{i, due, sent, busy}
		}
	}()
	res.firstSend = sched.start
	_ = f.c.SetReadDeadline(sched.due(len(reqs) - 1).Add(30 * time.Second))
	var readErr error
	for p := range pending {
		rq := reqs[p.i]
		res.lagMs = append(res.lagMs, float64(p.sent.Sub(p.due))/1e6)
		res.t.attempted++
		var applied bool
		if readErr == nil {
			if rq.batch >= 0 {
				applied, readErr = f.dec.ReadBatchAck()
			} else {
				readErr = f.readQuery(rq.q)
				act.inflight.Add(-1)
				act.events.Add(1)
			}
		}
		done := time.Now()
		if readErr != nil {
			if rq.batch >= 0 {
				res.t.failed++
			} else {
				res.t.badQueries++
			}
			_ = f.c.Close() // unblock the writer
			continue
		}
		kind := "batch"
		if rq.batch >= 0 {
			res.ingest = true
			d := done.Sub(p.sent)
			res.ack.add(p.sent, d)
			if p.busy {
				res.ackOverlap.add(p.sent, d)
			} else {
				res.ackClear.add(p.sent, d)
			}
			if applied {
				res.acks[rq.batch]++
				res.reports += int64(batches[rq.batch].reports)
				res.wireBytes += int64(len(batches[rq.batch].frame))
			} else {
				res.t.shed++
			}
		} else {
			kind = kindName(rq.q)
			res.query.add(p.due, sched.latency(p.i, done))
		}
		if tr != nil {
			name := "gen.query"
			if rq.batch >= 0 {
				name = "gen.batch"
			}
			tr.add(span{Req: int64(conn)<<32 | int64(p.i), Name: name, Conn: conn, Kind: kind,
				Start: tr.ns(p.due), End: tr.ns(done), Overlap: p.busy, Failed: rq.batch >= 0 && !applied})
		}
	}
	wg.Wait()
	if readErr != nil || writeErr != nil {
		res.t.timedOut += int64(len(reqs) - res.lenAttempted())
		res.err = fmt.Errorf("open-loop connection %d: read %v, write %v", conn, readErr, writeErr)
		return res
	}
	res.t.attempted++
	if err := f.fence(); err != nil {
		res.t.badQueries++
		res.err = fmt.Errorf("closing fence: %w", err)
		return res
	}
	res.fenced = time.Now()
	return res
}

// lenAttempted is how many scheduled requests went out.
func (r *connResult) lenAttempted() int { return len(r.lagMs) }

// pointChecks is how many periods, spread over the horizon, the v1
// point query is verified at. Every period's estimate is verified
// through the Series frame; one v1 query per period would make a quorum
// read per period on replicated-mixed, about 10 s a verification.
const pointChecks = 64

// verifyBool checks every query shape through the front bit-for-bit
// against the serial reference, one query at a time. It also returns
// the ℓ∞ error against the truth of the verified Series, which holds
// every period's estimate.
func verifyBool(addr string, ref *ldp.Server, truth []float64) (tally, float64, error) {
	var t tally
	f, err := dialFront(addr, false)
	if err != nil {
		return t, 0, err
	}
	defer f.close()
	linf := 0.0
	check := func(got, want float64) {
		t.attempted++
		if got != want {
			t.mismatched++
		}
	}
	for i := 0; i < pointChecks; i++ {
		p := 1 + i*(boolD-1)/(pointChecks-1)
		if err := f.send(nil, transport.Query(p)); err != nil {
			return t, 0, err
		}
		m, err := f.dec.Next()
		if err != nil || m.Type != transport.MsgEstimate || m.T != p {
			return t, 0, fmt.Errorf("point query t=%d: %+v %v", p, m, err)
		}
		want, err := ref.EstimateAt(p)
		if err != nil {
			return t, 0, err
		}
		check(m.Value, want)
	}
	shapes := []ldp.Query{
		ldp.PointQuery(1), ldp.PointQuery(boolD),
		ldp.ChangeQuery(1, boolD), ldp.ChangeQuery(boolD/4+1, boolD/2),
		ldp.SeriesQuery(),
		ldp.WindowQuery(1, boolD), ldp.WindowQuery(boolD/2, boolD/2+1),
	}
	for _, q := range shapes {
		l, r := q.L, q.R
		if q.Kind == ldp.Point {
			l, r = q.T, q.T
		}
		if err := f.send(nil, transport.QueryV2(transport.QueryKind(q.Kind), l, r)); err != nil {
			return t, 0, err
		}
		a, err := f.dec.ReadAnswer()
		if err != nil {
			return t, 0, fmt.Errorf("%s query: %w", q.Kind, err)
		}
		want, err := ref.Answer(q)
		if err != nil {
			return t, 0, err
		}
		wantVals := want.Series
		if q.Kind == ldp.Point || q.Kind == ldp.Change {
			wantVals = []float64{want.Value}
		}
		if len(a.Values) != len(wantVals) {
			t.attempted++
			t.badQueries++
			continue
		}
		for i := range wantVals {
			check(a.Values[i], wantVals[i])
		}
		if q.Kind == ldp.Series {
			for p, v := range a.Values {
				linf = math.Max(linf, math.Abs(v-truth[p]))
			}
		}
	}
	return t, linf, nil
}

// verifyDomain checks every item-scoped query shape through the front
// bit-for-bit against the serial hashed reference, and returns the ℓ∞
// error over every period of the true top items.
func verifyDomain(addr string, ref *ldp.DomainServer, in *domainInputs, acks []int, top []int) (tally, float64, error) {
	var t tally
	f, err := dialFront(addr, true)
	if err != nil {
		return t, 0, err
	}
	defer f.close()
	ask := func(q transport.Msg) (transport.DomainAnswerFrame, error) {
		if err := f.send(nil, q); err != nil {
			return transport.DomainAnswerFrame{}, err
		}
		return f.dec.ReadDomainAnswer()
	}
	compare := func(a transport.DomainAnswerFrame, want ldp.Answer, q ldp.Query) {
		vals := want.Series
		if q.Kind == ldp.PointItem {
			vals = []float64{want.Value}
		}
		if len(a.Values) != len(vals) || len(a.Items) != len(want.Items) {
			t.attempted++
			t.badQueries++
			return
		}
		for i := range vals {
			t.attempted++
			if a.Values[i] != vals[i] {
				t.mismatched++
			}
		}
		for i := range want.Items {
			t.attempted++
			if a.Items[i] != want.Items[i] {
				t.mismatched++
			}
		}
	}
	queries := []ldp.Query{ldp.TopKQuery(domD, domTopK), ldp.TopKQuery(domD, 100), ldp.TopKQuery(domD/2, domTopK), ldp.TopKQuery(1, domTopK)}
	for _, x := range in.hot {
		for _, p := range []int{1, domD / 2, domD} {
			queries = append(queries, ldp.PointItemQuery(x, p))
		}
	}
	for _, q := range queries {
		var msg transport.Msg
		if q.Kind == ldp.TopK {
			msg = transport.DomainQuery(transport.QueryTopK, 0, q.T, 0, q.K)
		} else {
			msg = transport.DomainQuery(transport.QueryPointItem, q.Item, q.T, 0, 0)
		}
		a, err := ask(msg)
		if err != nil {
			return t, 0, fmt.Errorf("%s query: %w", q.Kind, err)
		}
		want, err := ref.Answer(q)
		if err != nil {
			return t, 0, err
		}
		compare(a, want, q)
	}
	linf := 0.0
	for _, x := range top {
		q := ldp.SeriesItemQuery(x)
		a, err := ask(transport.DomainQuery(transport.QuerySeriesItem, x, 0, 0, 0))
		if err != nil {
			return t, 0, fmt.Errorf("series-item(%d): %w", x, err)
		}
		want, err := ref.Answer(q)
		if err != nil {
			return t, 0, err
		}
		compare(a, want, q)
		truth := in.truthSeries(acks, x)
		for p := range a.Values {
			if p < len(truth) {
				linf = math.Max(linf, math.Abs(a.Values[p]-truth[p]))
			}
		}
	}
	return t, linf, nil
}
