package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"rtf/internal/transport"
)

// topology is one workload's set of serving processes on loopback.
type topology struct {
	wl       string
	serveBin string
	gwBin    string
	tmp      string // parent of the data directories
	hashSeed uint64
	domain   bool

	backends []*proc
	gw       *proc // nil when clients talk to one rtf-serve directly
	dataDir  string
	members  string // replicated-mixed: the -members spec
}

const (
	vshards  = 64
	replicas = 2
)

func boolFlags() []string {
	return []string{"-mechanism", "futurerand", "-d", fmt.Sprint(boolD), "-k", fmt.Sprint(boolK), "-eps", fmt.Sprint(boolEps)}
}

func (tp *topology) domFlags() []string {
	return []string{"-mechanism", "futurerand", "-d", fmt.Sprint(domD), "-k", fmt.Sprint(domK), "-eps", fmt.Sprint(domEps),
		"-m", fmt.Sprint(domM), "-encoding", "loloha", "-buckets", fmt.Sprint(domBuckets), "-hash-seed", fmt.Sprint(tp.hashSeed)}
}

var listenFlags = []string{"-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0"}

// front is the address clients send to.
func (tp *topology) front() string {
	if tp.gw != nil {
		return tp.gw.addr
	}
	return tp.backends[0].addr
}

// procs lists every serving process.
func (tp *topology) procs() []*proc {
	ps := append([]*proc(nil), tp.backends...)
	if tp.gw != nil {
		ps = append(ps, tp.gw)
	}
	return ps
}

// up spawns the workload's processes and waits until each listens.
func (tp *topology) up() error {
	tp.backends, tp.gw = nil, nil
	serve := func(extra ...string) error {
		args := append(append([]string(nil), listenFlags...), extra...)
		p, err := start("rtf-serve", tp.serveBin, args...)
		if err != nil {
			return err
		}
		tp.backends = append(tp.backends, p)
		return nil
	}
	gateway := func(extra ...string) error {
		args := append(append([]string(nil), listenFlags...), extra...)
		p, err := start("rtf-gateway", tp.gwBin, args...)
		if err != nil {
			return err
		}
		tp.gw = p
		return nil
	}
	addrs := func() string {
		var a []string
		for _, b := range tp.backends {
			a = append(a, b.addr)
		}
		return strings.Join(a, ",")
	}
	switch tp.wl {
	case wlIngestDurable:
		dir, err := os.MkdirTemp(tp.tmp, "data-")
		if err != nil {
			return err
		}
		tp.dataDir = dir
		// No periodic snapshot: every restart replays the whole WAL.
		return serve(append(boolFlags(), "-shards", "2", "-data-dir", dir, "-snapshot-every", "0")...)
	case wlGatewayMixed:
		for i := 0; i < 2; i++ {
			if err := serve(append(boolFlags(), "-shards", "2")...); err != nil {
				return err
			}
		}
		return gateway(append(boolFlags(), "-backends", addrs())...)
	case wlReplicatedMixed:
		var spec []string
		for i := 0; i < 3; i++ {
			id := fmt.Sprintf("b%d", i)
			if err := serve(append(boolFlags(), "-membership", "-id", id, "-vshards", fmt.Sprint(vshards))...); err != nil {
				return err
			}
			spec = append(spec, id+"="+tp.backends[i].addr)
		}
		tp.members = strings.Join(spec, ",")
		return gateway(append(boolFlags(), "-members", tp.members, "-replicas", fmt.Sprint(replicas), "-vshards", fmt.Sprint(vshards))...)
	case wlDomainDashboard:
		for i := 0; i < 2; i++ {
			if err := serve(append(tp.domFlags(), "-shards", "2")...); err != nil {
				return err
			}
		}
		return gateway(append(tp.domFlags(), "-backends", addrs())...)
	}
	return fmt.Errorf("unknown workload %q", tp.wl)
}

// down kills every process of the topology and drops its data.
func (tp *topology) down() {
	for _, p := range tp.procs() {
		p.kill()
	}
	if tp.dataDir != "" {
		_ = os.RemoveAll(tp.dataDir)
		tp.dataDir = ""
	}
}

// firstFence dials the front and answers one fence.
func (tp *topology) firstFence() error {
	f, err := dialFront(tp.front(), tp.domain)
	if err != nil {
		return err
	}
	defer f.close()
	return f.fence()
}

// setup brings the topology up reps times, timing spawn → every
// process listening → first fence answered, and leaves the last one
// running. Between two set-ups it runs gap, which spaces them out: the
// shared machine's speed drifts over seconds, and spaced set-ups
// sample a few seconds of that drift instead of one moment of it. It
// returns the median time in seconds.
func (tp *topology) setup(reps int, gap func() error) (float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			tp.down()
			if err := gap(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		if err := tp.up(); err != nil {
			return 0, err
		}
		if err := tp.firstFence(); err != nil {
			return 0, fmt.Errorf("first fence: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

// recover kill -9s the stateful process of the topology (the durable
// server, or else the gateway), restarts it on the same address (and
// data directory), and times kill → first correct answer through the
// front. correct asks one query on a fresh connection and reports
// whether its answer is the reference's; answers that stay wrong for
// 20 s return ok = false, a front that stays unreachable an error.
func (tp *topology) recover(correct func(addr string) (bool, error)) (secs float64, ok bool, err error) {
	target := tp.gw
	if target == nil {
		target = tp.backends[0]
	}
	t0 := time.Now()
	target.kill()
	p, err := target.restart()
	if err != nil {
		return 0, false, err
	}
	if target == tp.gw {
		tp.gw = p
	} else {
		tp.backends[0] = p
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		ok, err = correct(tp.front())
		if ok || time.Now().After(deadline) {
			if err != nil {
				err = fmt.Errorf("no answer within 20s after restart: %w", err)
			}
			return time.Since(t0).Seconds(), ok, err
		}
		sleepUntil(time.Now().Add(100 * time.Microsecond))
	}
}

// boolCorrect asks Point(d) through the v1 path and compares it with
// want.
func boolCorrect(want float64) func(string) (bool, error) {
	return func(addr string) (bool, error) {
		f, err := dialFront(addr, false)
		if err != nil {
			return false, err
		}
		defer f.close()
		if err := f.send(nil, transport.Query(boolD)); err != nil {
			return false, err
		}
		m, err := f.dec.Next()
		if err != nil {
			return false, err
		}
		return m.Type == transport.MsgEstimate && m.Value == want, nil
	}
}

// domainCorrect asks PointItem(x, d) and compares it with want.
func domainCorrect(x int, want float64) func(string) (bool, error) {
	return func(addr string) (bool, error) {
		f, err := dialFront(addr, true)
		if err != nil {
			return false, err
		}
		defer f.close()
		if err := f.send(nil, transport.DomainQuery(transport.QueryPointItem, x, domD, 0, 0)); err != nil {
			return false, err
		}
		a, err := f.dec.ReadDomainAnswer()
		if err != nil {
			return false, err
		}
		return len(a.Values) == 1 && a.Values[0] == want, nil
	}
}

// sumHWM is the summed peak resident set of the processes, in MB.
func sumHWM(ps []*proc) (float64, error) {
	var kb int64
	for _, p := range ps {
		v, err := p.hwmKB()
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}
