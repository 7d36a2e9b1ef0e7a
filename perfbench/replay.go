package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"rtf/internal/hh"
	"rtf/internal/membership"
	"rtf/internal/obs"
	"rtf/internal/persist"
	"rtf/internal/protocol"
	"rtf/internal/transport"
	"rtf/ldp"
)

// The traced run's per-layer numbers. After the window, the recorded
// frames are fed through each module's public functions on their own —
// decode → validate → apply → journal → fold/merge → answer — each call
// a span under one parent span per replayed request, so a layer's self
// time is its span minus its children. The processes' /metrics and
// /proc counters, read at the window's start and end, give the rest.
// Nothing inside the program is traced.

const (
	replayBatches = 400 // batches fed through the write-path layers
	replayQueries = 60  // queries replayed as gather + merge + answer
	foldReps      = 20
)

// layerInputs is what the window left for the per-layer numbers.
type layerInputs struct {
	tp            *topology
	w             *window
	before, after []procSample
	walBytes      int64 // the durable server's data directory, before recovery
}

// collector is the write-path surface shared by the Boolean and hashed
// collectors and their durable wrappers.
type collector interface {
	Validate(m transport.Msg) error
	SendBatch(shard int, ms []transport.Msg) error
}

// layerEngine is one workload's write path, built fresh for the replay;
// with a WAL directory it has a durable collector beside the in-memory
// one.
type layerEngine struct {
	col, durable collector
	closeDurable func() error
	ingest       func(ms []transport.Msg) int // feeds the reports to the counter matrix, returns how many
	fold         func()
}

func (c *runConfig) scale() (float64, error) {
	mc, ok := ldp.Lookup(ldp.FutureRand)
	if !ok {
		return 0, fmt.Errorf("futurerand mechanism not registered")
	}
	if c.domain() {
		return mc.EstimatorScale(ldp.Params{D: domD, K: domK, Eps: domEps})
	}
	return mc.EstimatorScale(ldp.Params{D: boolD, K: boolK, Eps: boolEps})
}

func (c *runConfig) encoding() hh.DomainEncoding {
	return hh.LolohaEncoding(domM, domBuckets, c.domIn.hashSeed)
}

func (c *runConfig) newEngine(walDir string) (*layerEngine, error) {
	scale, err := c.scale()
	if err != nil {
		return nil, err
	}
	e := &layerEngine{}
	if c.domain() {
		enc := c.encoding()
		meta := persist.Meta{Mechanism: string(ldp.FutureRand), D: domD, K: domK, M: domM, Eps: domEps, Scale: scale,
			Encoding: enc.Name, G: enc.G, HashSeed: enc.Seed}
		hs := hh.NewHashedDomainServer(domD, enc, scale, 2)
		e.col = transport.NewHashedDomainCollector(hs)
		if walDir != "" {
			dc, _, err := transport.OpenDurableHashedDomain(hh.NewHashedDomainServer(domD, enc, scale, 2), walDir, meta, transport.DurableOptions{})
			if err != nil {
				return nil, err
			}
			e.durable, e.closeDurable = dc, dc.Close
		}
		matrix := hh.NewHashedDomainServer(domD, enc, scale, 2)
		e.ingest = func(ms []transport.Msg) int {
			n := 0
			for _, m := range ms {
				if m.Type == transport.MsgDomainReport {
					matrix.Ingest(0, m.Item, protocol.Report{User: m.User, Order: m.Order, J: m.J, Bit: m.Bit})
					n++
				}
			}
			return n
		}
		e.fold = func() { _ = transport.DomainSumsFromServer(hs.Inner()) }
		return e, nil
	}
	meta := persist.Meta{Mechanism: string(ldp.FutureRand), D: boolD, K: boolK, Eps: boolEps, Scale: scale}
	acc := protocol.NewSharded(boolD, scale, 2)
	e.col = transport.NewShardedCollector(acc)
	if walDir != "" {
		dc, _, err := transport.OpenDurable(protocol.NewSharded(boolD, scale, 2), walDir, meta, transport.DurableOptions{})
		if err != nil {
			return nil, err
		}
		e.durable, e.closeDurable = dc, dc.Close
	}
	matrix := protocol.NewSharded(boolD, scale, 2)
	e.ingest = func(ms []transport.Msg) int {
		n := 0
		for _, m := range ms {
			if m.Type == transport.MsgReport {
				matrix.Ingest(0, m.Report())
				n++
			}
		}
		return n
	}
	e.fold = func() { _, _, _ = acc.Fold() }
	return e, nil
}

// spanScope times layer calls under one parent span.
type spanScope struct {
	tr     *tracer
	parent int64
	req    int64
}

func (s spanScope) time(name string, count int, f func() error) error {
	t0 := time.Now()
	err := f()
	s.tr.add(span{Parent: s.parent, Req: s.req, Name: name, Start: s.tr.ns(t0), End: s.tr.ns(time.Now()), Count: count, Failed: err != nil})
	return err
}

// nest times f as one span; the spans f records through inner are its
// children.
func (s spanScope) nest(name string, count int, f func(inner spanScope) error) error {
	t0 := time.Now()
	id := s.tr.add(span{Parent: s.parent, Req: s.req, Name: name, Start: s.tr.ns(t0), End: s.tr.ns(t0), Count: count})
	err := f(spanScope{tr: s.tr, parent: id, req: s.req})
	s.tr.mu.Lock()
	s.tr.spans[id-1].End = s.tr.ns(time.Now())
	s.tr.spans[id-1].Failed = err != nil
	s.tr.mu.Unlock()
	return err
}

// root opens a parent span; end closes it.
func (t *tracer) root(name string, req int64) (spanScope, func()) {
	t0 := time.Now()
	id := t.add(span{Req: req, Name: name, Start: t.ns(t0), End: t.ns(t0)})
	return spanScope{tr: t, parent: id, req: req}, func() {
		t.mu.Lock()
		t.spans[id-1].End = t.ns(time.Now())
		t.mu.Unlock()
	}
}

// replay feeds recorded frames and queries through each layer and
// records the span-derived per-layer metrics.
func (c *runConfig) replay(lc *layerInputs, o *outcome) error {
	tr := c.tracer
	walDir, err := os.MkdirTemp(c.tmp, "replay-wal-")
	if err != nil {
		return err
	}
	e, err := c.newEngine(walDir)
	if err != nil {
		return err
	}
	bs := c.batches()
	n := min(len(bs), replayBatches)
	var msgs, reports int
	encBuf := &bytes.Buffer{}
	enc := transport.NewEncoder(encBuf)
	reqBase := int64(1) << 40
	for i := 0; i < n; i++ {
		sc, end := tr.root("replay.batch", reqBase+int64(i))
		var ms []transport.Msg
		err := sc.time("wire.decode", bs[i].msgs, func() error {
			dec := transport.NewDecoder(bytes.NewReader(bs[i].frame))
			got, err := dec.NextBatch()
			ms = append([]transport.Msg(nil), got...)
			return err
		})
		if err == nil {
			err = sc.time("wire.encode", len(ms), func() error {
				encBuf.Reset()
				if err := enc.EncodeAckedBatch(ms); err != nil {
					return err
				}
				return enc.Flush()
			})
		}
		if err == nil {
			err = sc.time("collector.validate", len(ms), func() error {
				for _, m := range ms {
					if err := e.col.Validate(m); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if err == nil {
			err = sc.time("collector.apply", len(ms), func() error { return e.col.SendBatch(0, ms) })
		}
		if err == nil {
			err = sc.time("persist.journal", len(ms), func() error { return e.durable.SendBatch(0, ms) })
		}
		var nrep int
		if err == nil {
			err = sc.time("protocol.ingest", bs[i].reports, func() error { nrep = e.ingest(ms); return nil })
		}
		end()
		if err != nil {
			return fmt.Errorf("replaying batch %d: %w", i, err)
		}
		msgs += len(ms)
		reports += nrep
	}
	if err := e.closeDurable(); err != nil {
		return err
	}
	for i := 0; i < foldReps; i++ {
		sc, end := tr.root("replay.fold", reqBase+int64(n+i))
		_ = sc.time("protocol.fold", 1, func() error { e.fold(); return nil })
		end()
	}
	if err := c.replayQueries(lc, o, reqBase+int64(n+foldReps)); err != nil {
		return err
	}

	self := selfTimes(tr.spans)
	l := o.layer
	per := func(name string, div int, scale float64) float64 {
		if div == 0 {
			return 0
		}
		return float64(self[name]) / float64(div) / scale
	}
	l["replay.batches"] = metric{float64(n), "count"}
	l["replay.msgs"] = metric{float64(msgs), "count"}
	l["replay.reports"] = metric{float64(reports), "count"}
	l["wire.decode_ns_per_msg"] = metric{per("wire.decode", msgs, 1), "ns"}
	l["wire.encode_ns_per_msg"] = metric{per("wire.encode", msgs, 1), "ns"}
	l["collector.validate_ns_per_msg"] = metric{per("collector.validate", msgs, 1), "ns"}
	l["collector.apply_us_per_batch"] = metric{per("collector.apply", n, 1e3), "us"}
	l["persist.journal_us_per_batch"] = metric{float64(self["persist.journal"]-self["collector.apply"]) / float64(n) / 1e3, "us"}
	l["protocol.ingest_ns_per_report"] = metric{per("protocol.ingest", reports, 1), "ns"}
	l["protocol.fold_us"] = metric{medianSpan(tr.spans, "protocol.fold") / 1e3, "us"}
	if c.wl == wlIngestDurable {
		l["persist.wal_bytes_per_report"] = metric{float64(lc.walBytes) / float64(lc.w.reports), "B"}
	} else {
		b, err := dirBytes(walDir)
		if err != nil {
			return err
		}
		l["persist.wal_bytes_per_report"] = metric{float64(b) / float64(max(reports, 1)), "B"}
		if err := c.replayWAL(walDir, o); err != nil {
			return err
		}
	}
	if err := c.observeClient(o); err != nil {
		return err
	}
	return nil
}

// medianSpan is the median duration in ns of the spans named name.
func medianSpan(spans []span, name string) float64 {
	var d []float64
	for _, s := range spans {
		if s.Name == name {
			d = append(d, float64(s.dur()))
		}
	}
	return median(d)
}

// observeClient times the client randomizer alone: Observe per period
// for a sample of users.
func (c *runConfig) observeClient(o *outcome) error {
	const users = 512
	var perNs []float64
	if c.domain() {
		f, err := ldp.NewDomainClientFactory(domD, domM, domOptions(c.domIn.hashSeed)...)
		if err != nil {
			return err
		}
		for u := 0; u < users; u++ {
			vals := c.domIn.w.Users[u].Values(domD)
			cl, err := f.NewClient(u, c.seed<<20+int64(u))
			if err != nil {
				return err
			}
			t0 := time.Now()
			for _, v := range vals {
				if _, _, err := cl.Observe(v); err != nil {
					return err
				}
			}
			perNs = append(perNs, float64(time.Since(t0))/domD)
		}
	} else {
		f, err := ldp.NewClientFactory(boolD, boolOptions()...)
		if err != nil {
			return err
		}
		for u := 0; u < users; u++ {
			vals := c.boolIn.w.Users[u].Values(boolD)
			cl, err := f.NewClient(u, c.seed<<20+int64(u))
			if err != nil {
				return err
			}
			t0 := time.Now()
			for _, v := range vals {
				cl.Observe(v == 1)
			}
			perNs = append(perNs, float64(time.Since(t0))/boolD)
		}
	}
	o.layer["core.observe_ns"] = metric{median(perNs), "ns"}
	return nil
}

// replayQueries replays queries of the workload's mix against the
// still-running backends: gather (one fetch per backend, or per shard
// replica under membership), merge, answer.
func (c *runConfig) replayQueries(lc *layerInputs, o *outcome, req int64) error {
	tr := c.tracer
	tp := lc.tp
	scale, err := c.scale()
	if err != nil {
		return err
	}
	opts := transport.ClusterOptions{DialAttempts: 3, PoolSize: 1}
	r := rng(c.seed, 99)
	var gatherMs, quorumMs, mergeUs, coldMs, warmUs, seriesUs []float64

	if tp.wl == wlReplicatedMixed {
		mems, err := membership.ParseMembers(tp.members)
		if err != nil {
			return err
		}
		view := membership.View{Epoch: 1, K: replicas, NumShards: vshards, Members: mems}
		rc := transport.NewReplicaClient(opts)
		defer rc.Close()
		for q := 0; q < replayQueries; q++ {
			sc, end := tr.root("replay.query", req+int64(q))
			perBackend := make(map[string]time.Duration)
			frames := make([]transport.SumsFrame, vshards)
			t0 := time.Now()
			err := sc.nest("replica.quorum_gather", vshards*replicas, func(gs spanScope) error {
				for s := 0; s < vshards; s++ {
					for _, oi := range view.Owners(s) {
						addr := view.Members[oi].Addr
						ts := time.Now()
						err := gs.time("cluster.fetch", 1, func() error {
							bc, err := rc.Lease(addr)
							if err != nil {
								return err
							}
							frames[s], err = bc.FetchShardSums(s)
							rc.Release(addr, bc, err == nil)
							return err
						})
						if err != nil {
							return err
						}
						perBackend[addr] += time.Since(ts)
					}
				}
				return nil
			})
			if err != nil {
				end()
				return fmt.Errorf("quorum gather: %w", err)
			}
			quorumMs = append(quorumMs, float64(time.Since(t0))/1e6)
			var slowest time.Duration
			for _, d := range perBackend {
				slowest = max(slowest, d)
			}
			gatherMs = append(gatherMs, float64(slowest)/1e6)
			srv := protocol.NewServer(boolD, scale)
			tm := time.Now()
			err = sc.time("cluster.merge", vshards, func() error {
				for _, f := range frames {
					if err := f.MergeInto(srv); err != nil {
						return err
					}
				}
				return nil
			})
			mergeUs = append(mergeUs, float64(time.Since(tm))/1e3)
			if err == nil {
				err = sc.time("query.answer", 1, func() error { _, err := transport.AnswerQuery(srv, boolQuery(r)); return err })
			}
			end()
			if err != nil {
				return err
			}
		}
	} else {
		var addrs []string
		for _, b := range tp.backends {
			addrs = append(addrs, b.addr)
		}
		cc, err := transport.NewClusterClient(addrs, opts)
		if err != nil {
			return err
		}
		defer cc.Close()
		enc := hh.DomainEncoding{}
		if c.domain() {
			enc = c.encoding()
		}
		for q := 0; q < replayQueries; q++ {
			sc, end := tr.root("replay.query", req+int64(q))
			var boolFrames []transport.SumsFrame
			var domFrames []transport.DomainSumsFrame
			var slowest time.Duration
			err := sc.nest("cluster.gather", len(addrs), func(gs spanScope) error {
				for i := range addrs {
					ts := time.Now()
					err := gs.time("cluster.fetch", 1, func() error {
						bc, err := cc.Lease(i)
						if err != nil {
							return err
						}
						if c.domain() {
							var f transport.DomainSumsFrame
							f, err = bc.FetchHashedDomainSums(enc.M, enc.G, enc.Seed)
							domFrames = append(domFrames, f)
						} else {
							var f transport.SumsFrame
							f, err = bc.FetchSums()
							boolFrames = append(boolFrames, f)
						}
						cc.Release(i, bc, err == nil)
						return err
					})
					if err != nil {
						return err
					}
					slowest = max(slowest, time.Since(ts))
				}
				return nil
			})
			if err != nil {
				end()
				return fmt.Errorf("gather: %w", err)
			}
			gatherMs = append(gatherMs, float64(slowest)/1e6)
			tm := time.Now()
			if c.domain() {
				hs := hh.NewHashedDomainServer(domD, enc, scale, 1)
				err = sc.time("cluster.merge", len(domFrames), func() error {
					for _, f := range domFrames {
						if err := f.MergeInto(hs.Inner()); err != nil {
							return err
						}
					}
					return nil
				})
				mergeUs = append(mergeUs, float64(time.Since(tm))/1e3)
				x := c.domIn.hot[r.IntN(len(c.domIn.hot))]
				steps := []struct {
					name string
					q    transport.Msg
					out  *[]float64
					unit float64
				}{
					{"hh.topk_cold", transport.DomainQuery(transport.QueryTopK, 0, domD, 0, domTopK), &coldMs, 1e6},
					{"hh.topk_warm", transport.DomainQuery(transport.QueryTopK, 0, domD, 0, domTopK), &warmUs, 1e3},
					{"hh.series_item", transport.DomainQuery(transport.QuerySeriesItem, x, 0, 0, 0), &seriesUs, 1e3},
				}
				for _, st := range steps {
					if err != nil {
						break
					}
					ts := time.Now()
					err = sc.time(st.name, 1, func() error { _, err := transport.AnswerHashedDomainQuery(hs, st.q); return err })
					*st.out = append(*st.out, float64(time.Since(ts))/st.unit)
				}
			} else {
				srv := protocol.NewServer(boolD, scale)
				err = sc.time("cluster.merge", len(boolFrames), func() error {
					for _, f := range boolFrames {
						if err := f.MergeInto(srv); err != nil {
							return err
						}
					}
					return nil
				})
				mergeUs = append(mergeUs, float64(time.Since(tm))/1e3)
				if err == nil {
					err = sc.time("query.answer", 1, func() error { _, err := transport.AnswerQuery(srv, boolQuery(r)); return err })
				}
			}
			end()
			if err != nil {
				return err
			}
		}
	}
	l := o.layer
	l["cluster.gather_ms"] = metric{median(gatherMs), "ms"}
	l["cluster.merge_us"] = metric{median(mergeUs), "us"}
	l["replica.quorum_gather_ms"] = metric{median(quorumMs), "ms"}
	l["hh.topk_cold_ms"] = metric{median(coldMs), "ms"}
	l["hh.topk_warm_us"] = metric{median(warmUs), "us"}
	l["hh.series_item_us"] = metric{median(seriesUs), "us"}
	return nil
}

// replayWAL times a recovery's persist work on dir: load the newest
// snapshot, restore it, and replay the WAL through decode and apply.
func (c *runConfig) replayWAL(dir string, o *outcome) error {
	e, err := c.newEngine("")
	if err != nil {
		return err
	}
	t0 := time.Now()
	snap, found, err := persist.LoadLatestSnapshot(dir)
	if err != nil {
		return err
	}
	if found {
		if c.domain() {
			return fmt.Errorf("unexpected snapshot in %s", dir)
		}
		scale, err := c.scale()
		if err != nil {
			return err
		}
		acc := protocol.NewSharded(boolD, scale, 2)
		if err := acc.RestoreState(snap.State); err != nil {
			return err
		}
		e.col = transport.NewShardedCollector(acc)
	}
	after := uint64(0)
	if found {
		after = snap.Cursor
	}
	_, _, err = persist.ReplayWAL(dir, persist.ReplayOptions{After: after}, func(seq uint64, payload []byte) error {
		dec := transport.NewDecoder(bytes.NewReader(payload))
		for {
			ms, err := dec.NextBatch()
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return err
			}
			if err := e.col.SendBatch(0, ms); err != nil {
				return err
			}
		}
	})
	if err != nil {
		return err
	}
	o.layer["persist.replay_s"] = metric{time.Since(t0).Seconds(), "s"}
	return nil
}

// layerFromWindow records the per-layer numbers read from the window
// itself and from the processes' counters at its start and end.
func (c *runConfig) layerFromWindow(lc *layerInputs, o *outcome, loadgenCPU, lagP99 float64) {
	l := o.layer
	tp, a, b := lc.tp, lc.before, lc.after
	nb := len(tp.backends)
	var apply, scatter obs.HistSnapshot
	var shed, backendBatches int64
	for i := 0; i < nb; i++ {
		apply = mergeHist(apply, histDelta(a[i], b[i], "ingest_latency_seconds"))
		shed += counterDelta(a[i], b[i], "ingest_shed_batches_total")
		backendBatches += counterDelta(a[i], b[i], "ingest_batches_total")
	}
	l["serve.apply_p50_ms"] = metric{apply.Quantile(0.5) * 1e3, "ms"}
	l["serve.apply_p99_ms"] = metric{histTail(apply) * 1e3, "ms"}
	l["serve.cpu_s"] = metric{cpuSeconds(a[:nb], b[:nb]), "s"}
	queries := float64(len(lc.w.query.ms))
	l["cluster.queries"] = metric{queries, "count"}
	acked := backendBatches
	if tp.gw != nil {
		g := nb
		shed += counterDelta(a[g], b[g], "ingest_shed_batches_total")
		for name := range b[g].snap.Histograms {
			if strings.HasPrefix(name, "scatter_latency_seconds") {
				scatter = mergeHist(scatter, histDelta(a[g], b[g], name))
			}
		}
		eligible := counterDelta(a[g], b[g], "query_cache_eligible_total")
		l["cluster.cache_eligible"] = metric{float64(eligible), "count"}
		l["cluster.cache_hit_ratio"] = metric{ratio(counterDelta(a[g], b[g], "query_cache_hits_total"), eligible), "ratio"}
		l["cluster.coalesced_per_query"] = metric{ratio(counterDelta(a[g], b[g], "query_coalesced_total"), int64(queries)), "ratio"}
		l["gateway.cpu_s"] = metric{cpuSeconds(a[g:], b[g:]), "s"}
		acked = counterDelta(a[g], b[g], "ingest_acked_batches_total")
		l["replica.divergences"] = metric{b[g].snap.Gauges["membership_divergences_total"] - a[g].snap.Gauges["membership_divergences_total"], "count"}
		l["replica.short_reads"] = metric{b[g].snap.Gauges["membership_short_reads_total"] - a[g].snap.Gauges["membership_short_reads_total"], "count"}
	} else {
		// No gateway in this topology: its layers did no work.
		l["cluster.cache_eligible"] = metric{0, "count"}
		l["cluster.cache_hit_ratio"] = metric{0, "ratio"}
		l["cluster.coalesced_per_query"] = metric{0, "ratio"}
		l["gateway.cpu_s"] = metric{0, "s"}
		l["replica.divergences"] = metric{0, "count"}
		l["replica.short_reads"] = metric{0, "count"}
	}
	l["cluster.scatter_p99_ms"] = metric{histTail(scatter) * 1e3, "ms"}
	l["serve.shed_batches"] = metric{float64(shed), "count"}
	l["replica.acked_batches"] = metric{float64(acked), "count"}
	l["replica.writes_per_batch"] = metric{ratio(backendBatches, acked), "ratio"}
	ov, _ := tailOf(lc.w.ackOverlap)
	cl, _ := tailOf(lc.w.ackClear)
	l["replica.ack_p99_ms_overlap"] = metric{ov, "ms"}
	l["replica.ack_p99_ms_clear"] = metric{cl, "ms"}
	l["loadgen.lag_p99_ms"] = metric{lagP99, "ms"}
	l["loadgen.cpu_s"] = metric{loadgenCPU, "s"}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// histTail is the histogram's tail percentile by the ten-beyond rule.
func histTail(h obs.HistSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	p := min(0.99, max(0.5, 1-float64(minTail)/float64(h.Count)))
	return h.Quantile(p)
}

func tailOf(l latencies) (float64, int) {
	_, tail, _, n, _ := l.summary()
	return tail, n
}
