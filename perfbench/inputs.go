package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"rtf/internal/protocol"
	"rtf/internal/transport"
	"rtf/ldp"
	"rtf/workload"
)

// Inputs are made from the seed before any process starts: every
// user's reports, packed into pre-encoded acked batch frames, and the
// per-user record the serial reference is fed from once the batches
// are acked.

// batchMsgs is the messages in one acked batch. Boolean users are
// split across batches so every batch but the last holds exactly this
// many; domain users are kept whole (a batch holds at most this many),
// because the dashboard's trickle stops part-way through its users.
const batchMsgs = 256

// batch is one pre-encoded acked batch frame. It holds messages
// [lo, hi) of the input's message order (hello, then reports, user
// after user); with whole users, lo and hi are user indices instead.
type batch struct {
	frame   []byte
	msgs    int
	reports int
	lo, hi  int
}

// packer groups messages into batches and encodes each when full.
type packer struct {
	enc     *transport.Encoder
	buf     bytes.Buffer
	split   bool // split users across batches
	msgs    []transport.Msg
	reports int
	lo, pos int // open batch's first position; next position
	batches []batch
	bytes   int64
}

func newPacker(split bool) *packer {
	p := &packer{split: split}
	p.enc = transport.NewEncoder(&p.buf)
	return p
}

// add appends one user's messages (hello first). Positions count
// messages when splitting and users otherwise.
func (p *packer) add(ms []transport.Msg) error {
	if !p.split {
		if len(p.msgs)+len(ms) > batchMsgs {
			if err := p.flush(); err != nil {
				return err
			}
		}
		p.push(ms)
		p.pos++
		return nil
	}
	for len(ms) > 0 {
		n := min(len(ms), batchMsgs-len(p.msgs))
		p.push(ms[:n])
		p.pos += n
		ms = ms[n:]
		if len(p.msgs) == batchMsgs {
			if err := p.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *packer) push(ms []transport.Msg) {
	for _, m := range ms {
		if m.Type == transport.MsgReport || m.Type == transport.MsgDomainReport {
			p.reports++
		}
	}
	p.msgs = append(p.msgs, ms...)
}

// flush encodes the open batch.
func (p *packer) flush() error {
	if len(p.msgs) == 0 {
		return nil
	}
	p.buf.Reset()
	if err := p.enc.EncodeAckedBatch(p.msgs); err != nil {
		return err
	}
	if err := p.enc.Flush(); err != nil {
		return err
	}
	frame := append([]byte(nil), p.buf.Bytes()...)
	p.bytes += int64(len(frame))
	p.batches = append(p.batches, batch{frame: frame, msgs: len(p.msgs), reports: p.reports, lo: p.lo, hi: p.pos})
	p.msgs, p.reports, p.lo = p.msgs[:0], 0, p.pos
	return nil
}

// device is one client's reusable scratch: the wire encoding of the
// reports it emits, kept allocation-free so the timing measures the
// client, not the garbage collector.
type device struct {
	wire  bytes.Buffer
	enc   *transport.Encoder
	order int
	item  int // domain: the sampled bucket
	reps  []ldp.Report
	dreps []ldp.DomainReport
	msgs  []transport.Msg
}

func newDevice(d int) *device {
	dv := &device{reps: make([]ldp.Report, 0, d), dreps: make([]ldp.DomainReport, 0, d), msgs: make([]transport.Msg, 0, d+1)}
	dv.enc = transport.NewEncoder(&dv.wire)
	return dv
}

// clientTimer times the device side: each user's periods through
// observe, which times Observe plus the encoding of each report
// emitted. Every pass re-creates the same clients from the same seeds,
// so passes do identical work, and a user's cost is its fastest pass:
// the least disturbed by other work on the shared machine. That
// machine's speed drifts over seconds, so a run makes its passes at
// several points apart in time.
type clientTimer struct {
	periods int
	observe func(u int) (time.Duration, error)
	best    []time.Duration
	passes  float64
}

func newClientTimer(users, periods int, observe func(u int) (time.Duration, error)) *clientTimer {
	ct := &clientTimer{periods: periods, observe: observe, best: make([]time.Duration, users)}
	for u := range ct.best {
		ct.best[u] = math.MaxInt64
	}
	return ct
}

// pass times every user once more.
func (ct *clientTimer) pass() error { return ct.part(0, 1) }

// part times every parts-th user from first once more: a share of a
// pass small enough to fill the gaps between repeated set-ups and
// restarts, so that each user is timed at many moments of the run.
func (ct *clientTimer) part(first, parts int) error {
	for u := first; u < len(ct.best); u += parts {
		d, err := ct.observe(u)
		if err != nil {
			return err
		}
		ct.best[u] = min(ct.best[u], d)
	}
	ct.passes += 1 / float64(parts)
	return nil
}

// nsPerPeriod is the users' fastest passes summed, per user-period.
func (ct *clientTimer) nsPerPeriod() float64 {
	var total time.Duration
	for _, d := range ct.best {
		total += d
	}
	return float64(total) / float64(len(ct.best)*ct.periods)
}

// boolParams are the Boolean workloads' protocol parameters.
const (
	boolD   = 1024
	boolK   = 4
	boolEps = 1.0
)

func boolOptions() []ldp.Option {
	return []ldp.Option{ldp.WithMechanism(ldp.FutureRand), ldp.WithSparsity(boolK), ldp.WithEpsilon(boolEps)}
}

// boolInputs is a pool of Boolean users, encoded once; a workload sends
// the pool's batches several times (a user re-sent is a fresh user to
// the server and to the reference alike).
type boolInputs struct {
	w        *workload.Workload
	orders   []int
	reps     [][]ldp.Report
	msgStart []int // position of each user's hello in the message order
	batches  []batch
	reports  int64 // per pass over the pool
	bytes    int64 // per pass over the pool
	clients  *clientTimer
}

func makeBoolInputs(users int, seed int64) (*boolInputs, error) {
	w, err := workload.Generate(workload.Uniform{N: users, D: boolD, K: boolK}, seed)
	if err != nil {
		return nil, err
	}
	f, err := ldp.NewClientFactory(boolD, boolOptions()...)
	if err != nil {
		return nil, err
	}
	in := &boolInputs{w: w, orders: make([]int, users), reps: make([][]ldp.Report, users), msgStart: make([]int, users)}
	dev := newDevice(boolD)
	observe := func(u int) (time.Duration, error) {
		vals := w.Users[u].Values(boolD)
		cl, err := f.NewClient(u, seed<<20+int64(u))
		if err != nil {
			return 0, err
		}
		dev.wire.Reset()
		dev.reps, dev.order = dev.reps[:0], cl.Order()
		t0 := time.Now()
		for t := 0; t < boolD; t++ {
			if r, ok := cl.Observe(vals[t] == 1); ok {
				if err := dev.enc.Encode(transport.FromReport(protocol.Report{User: r.User, Order: r.Order, J: r.J, Bit: r.Bit})); err != nil {
					return 0, err
				}
				dev.reps = append(dev.reps, r)
			}
		}
		return time.Since(t0), nil
	}
	p := newPacker(true)
	for u := 0; u < users; u++ {
		if _, err := observe(u); err != nil {
			return nil, err
		}
		ms := append(dev.msgs[:0], transport.Hello(u, dev.order))
		for _, r := range dev.reps {
			ms = append(ms, transport.FromReport(protocol.Report{User: r.User, Order: r.Order, J: r.J, Bit: r.Bit}))
		}
		dev.msgs = ms
		in.msgStart[u] = p.pos
		if err := p.add(ms); err != nil {
			return nil, err
		}
		in.orders[u], in.reps[u] = dev.order, append([]ldp.Report(nil), dev.reps...)
		in.reports += int64(len(dev.reps))
	}
	if err := p.flush(); err != nil {
		return nil, err
	}
	in.batches, in.bytes = p.batches, p.bytes
	in.clients = newClientTimer(users, boolD, observe)
	return in, nil
}

// reference builds the serial engine fed exactly the acked batches:
// acks[i] is how many times batch i was acked.
func (in *boolInputs) reference(acks []int) (*ldp.Server, error) {
	ref, err := ldp.NewServer(boolD, boolOptions()...)
	if err != nil {
		return nil, err
	}
	for i, b := range in.batches {
		for n := 0; n < acks[i]; n++ {
			u := sort.SearchInts(in.msgStart, b.lo+1) - 1
			for pos := b.lo; pos < b.hi; pos++ {
				for u+1 < len(in.msgStart) && in.msgStart[u+1] <= pos {
					u++
				}
				var err error
				if j := pos - in.msgStart[u]; j == 0 {
					err = ref.Register(in.orders[u])
				} else {
					err = ref.Ingest(in.reps[u][j-1])
				}
				if err != nil {
					return nil, err
				}
			}
		}
	}
	return ref, nil
}

// truth is the true count per period, each user weighted by the acks
// of the batch holding its hello.
func (in *boolInputs) truth(acks []int) []float64 {
	out := make([]float64, boolD)
	bi := 0
	for u, start := range in.msgStart {
		for in.batches[bi].hi <= start {
			bi++
		}
		for t, v := range in.w.Users[u].Values(boolD) {
			out[t] += float64(int(v) * acks[bi])
		}
	}
	return out
}

// boolQuery draws the gateway workloads' query mix: Point at the latest
// period, Change, Window and Series in equal shares.
func boolQuery(r *rand.Rand) transport.Msg {
	l := 1 + r.IntN(boolD)
	h := l + r.IntN(boolD-l+1)
	switch r.IntN(4) {
	case 0:
		return transport.QueryV2(transport.QueryPoint, boolD, boolD)
	case 1:
		return transport.QueryV2(transport.QueryChange, l, h)
	case 2:
		return transport.QueryV2(transport.QueryWindow, l, h)
	default:
		return transport.QueryV2(transport.QuerySeries, 0, 0)
	}
}

// Domain (domain-dashboard) parameters: a million-item catalogue hashed
// into 256 buckets.
const (
	domD       = 128
	domK       = 4
	domM       = 1_000_000
	domBuckets = 256
	domEps     = 1.0
	domZipf    = 1.1
	domTopK    = 10
)

func domOptions(hashSeed uint64) []ldp.Option {
	return []ldp.Option{ldp.WithMechanism(ldp.FutureRand), ldp.WithSparsity(domK), ldp.WithEpsilon(domEps),
		ldp.WithDomainEncoding("loloha"), ldp.WithBuckets(domBuckets), ldp.WithHashSeed(hashSeed)}
}

// domainInputs is the dashboard's user set: a preloaded population and
// a trickle of further users sent during the window.
type domainInputs struct {
	w        *ldp.DomainWorkload
	hashSeed uint64
	buckets  []int // per user: the hashed bucket its hello carries
	orders   []int
	reps     [][]ldp.DomainReport
	preload  []batch
	trickle  []batch
	reports  int64
	bytes    int64
	clients  *clientTimer
	hot      []int // the true top items at the last period of the preload
}

func makeDomainInputs(preUsers, trickleUsers int, seed int64) (*domainInputs, error) {
	n := preUsers + trickleUsers
	w, err := ldp.GenerateDomain(n, domD, domM, domK, domZipf, seed)
	if err != nil {
		return nil, err
	}
	hashSeed := uint64(seed)*0x9e3779b97f4a7c15 + 1
	f, err := ldp.NewDomainClientFactory(domD, domM, domOptions(hashSeed)...)
	if err != nil {
		return nil, err
	}
	in := &domainInputs{w: w, hashSeed: hashSeed, buckets: make([]int, n), orders: make([]int, n), reps: make([][]ldp.DomainReport, n)}
	dev := newDevice(domD)
	observe := func(u int) (time.Duration, error) {
		vals := w.Users[u].Values(domD)
		cl, err := f.NewClient(u, seed<<20+int64(u))
		if err != nil {
			return 0, err
		}
		dev.wire.Reset()
		dev.dreps, dev.order, dev.item = dev.dreps[:0], cl.Order(), cl.Item()
		t0 := time.Now()
		for t := 0; t < domD; t++ {
			r, ok, err := cl.Observe(vals[t])
			if err != nil {
				return 0, err
			}
			if ok {
				if err := dev.enc.Encode(transport.FromDomainReport(r.Item, protocol.Report{User: r.User, Order: r.Order, J: r.J, Bit: r.Bit})); err != nil {
					return 0, err
				}
				dev.dreps = append(dev.dreps, r)
			}
		}
		return time.Since(t0), nil
	}
	p := newPacker(false)
	for u := 0; u < n; u++ {
		if u == preUsers {
			if err := p.flush(); err != nil {
				return nil, err
			}
			in.preload, p.batches = p.batches, nil
		}
		if _, err := observe(u); err != nil {
			return nil, err
		}
		ms := append(dev.msgs[:0], transport.HashedDomainHello(u, dev.item, dev.order, hashSeed))
		for _, r := range dev.dreps {
			ms = append(ms, transport.FromDomainReport(r.Item, protocol.Report{User: r.User, Order: r.Order, J: r.J, Bit: r.Bit}))
		}
		dev.msgs = ms
		if err := p.add(ms); err != nil {
			return nil, err
		}
		in.buckets[u], in.orders[u], in.reps[u] = dev.item, dev.order, append([]ldp.DomainReport(nil), dev.dreps...)
		in.reports += int64(len(dev.dreps))
	}
	if err := p.flush(); err != nil {
		return nil, err
	}
	in.trickle, in.bytes = p.batches, p.bytes
	in.clients = newClientTimer(n, domD, observe)
	acks := make([]int, len(in.preload)+len(in.trickle))
	for i := range in.preload {
		acks[i] = 1
	}
	in.hot = in.topItems(acks, domTopK)
	return in, nil
}

// topItems is the true top-k at the last period over every user in an
// acked batch, ties toward the smaller item.
func (in *domainInputs) topItems(acks []int, k int) []int {
	counts := make(map[int]int)
	for i, b := range in.all() {
		if acks[i] == 0 {
			continue
		}
		for u := b.lo; u < b.hi; u++ {
			if v := in.w.Users[u].ValueAt(domD); v >= 0 {
				counts[v] += acks[i]
			}
		}
	}
	items := make([]int, 0, len(counts))
	for x := range counts {
		items = append(items, x)
	}
	sort.Slice(items, func(i, j int) bool {
		if counts[items[i]] != counts[items[j]] {
			return counts[items[i]] > counts[items[j]]
		}
		return items[i] < items[j]
	})
	if len(items) > k {
		items = items[:k]
	}
	return items
}

// all lists preload then trickle batches; acks index into it.
func (in *domainInputs) all() []batch {
	return append(append([]batch(nil), in.preload...), in.trickle...)
}

func (in *domainInputs) reference(acks []int) (*ldp.DomainServer, error) {
	ref, err := ldp.NewDomainServer(domD, domM, domOptions(in.hashSeed)...)
	if err != nil {
		return nil, err
	}
	for i, b := range in.all() {
		for n := 0; n < acks[i]; n++ {
			for u := b.lo; u < b.hi; u++ {
				if err := ref.Register(in.buckets[u], in.orders[u]); err != nil {
					return nil, err
				}
				for _, r := range in.reps[u] {
					if err := ref.Ingest(r); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return ref, nil
}

// truthSeries is item x's true count per period over the acked users.
func (in *domainInputs) truthSeries(acks []int, x int) []float64 {
	out := make([]float64, domD)
	for i, b := range in.all() {
		for u := b.lo; u < b.hi; u++ {
			for t, v := range in.w.Users[u].Values(domD) {
				if v == x {
					out[t] += float64(acks[i])
				}
			}
		}
	}
	return out
}

// domainQuery draws the dashboard mix: TopK at the latest period (50%),
// PointItem on a hot item at the latest period (30%) and SeriesItem on
// a hot item (20%).
func domainQuery(r *rand.Rand, hot []int) transport.Msg {
	x := hot[r.IntN(len(hot))]
	switch c := r.IntN(10); {
	case c < 5:
		return transport.DomainQuery(transport.QueryTopK, 0, domD, 0, domTopK)
	case c < 8:
		return transport.DomainQuery(transport.QueryPointItem, x, domD, 0, 0)
	default:
		return transport.DomainQuery(transport.QuerySeriesItem, x, 0, 0, 0)
	}
}

// kindName labels a query message for spans and logs.
func kindName(m transport.Msg) string {
	if m.Type == transport.MsgDomainQuery || m.Type == transport.MsgQueryV2 {
		return m.Kind.String()
	}
	return fmt.Sprintf("msg%d", m.Type)
}
