// Command perfbench is the serving benchmark: it builds rtf-serve and
// rtf-gateway from the checkout, starts one workload's topology on
// loopback, drives it from this one process, checks every answer
// bit-for-bit against a serial in-process reference, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) with a
// final JSON line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

const (
	wlIngestDurable   = "ingest-durable"
	wlGatewayMixed    = "gateway-mixed"
	wlReplicatedMixed = "replicated-mixed"
	wlDomainDashboard = "domain-dashboard"
)

// Workload sizes. The ingest volume of a run is fixed by -seconds and
// these offered rates (reports/s), paced over -seconds, so every run of
// a workload does the same work. The rates sit well below what the
// machine sustains: a saturating loop measures how much of the shared
// machine the host lends the run, which swings by half from minute to
// minute. The query schedules run for -seconds at fixed rates.
const (
	boolPoolUsers = 8192
	setupReps     = 51
	recoverReps   = 21 // gateway restarts
	// Durable restarts; each replays the run's whole WAL.
	durableRecoverReps = 3
	gatewayQPS         = 420
	replicatedQPS      = 50
	dashQPS            = 210  // per connection
	dashTrickleGap     = 100  // one acked batch per this many queries
	idleQPS            = 2000 // ingest-durable's read-back phases
	idlePhaseQueries   = 1500
	dashPreload        = 20000
	preloadSeconds     = 1 // the dashboard population is loaded paced over this long
	durableRate        = 3_000_000
	gatewayRate        = 1_500_000
	replicatedRate     = 600_000
)

var workloads = []string{wlIngestDurable, wlGatewayMixed, wlReplicatedMixed, wlDomainDashboard}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		root    = flag.String("root", ".", "checkout root to build the serving binaries from")
		wl      = flag.String("workload", wlIngestDurable, "workload: ingest-durable, gateway-mixed, replicated-mixed or domain-dashboard")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 12, "length of the measured traffic in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run: print per-layer metrics instead of end-to-end ones")
	)
	flag.Parse()
	known := false
	for _, w := range workloads {
		known = known || w == *wl
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *wl, *seconds, *trace)
		os.Exit(2)
	}
	// One generator process, no more threads than processors.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	tmp, err := os.MkdirTemp(filepath.Join(*root, ".bench_build", "tmp"), "run-")
	if err != nil {
		fatal(err)
	}
	cleanup := func() {
		killAll()
		_ = os.RemoveAll(tmp)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()
	defer func() {
		if r := recover(); r != nil {
			cleanup()
			panic(r)
		}
	}()

	res, err := run(*root, tmp, *wl, *seed, *seconds, *trace == 1)
	cleanup()
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	killAll()
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run makes the inputs, builds the binaries and measures one workload.
func run(root, tmp, wl string, seed int64, seconds int, trace bool) (*result, error) {
	binDir := filepath.Join(tmp, "bin")
	serveBin, gwBin, err := buildBinaries(root, binDir)
	if err != nil {
		return nil, err
	}
	cfg := runConfig{wl: wl, seed: seed, seconds: seconds, serveBin: serveBin, gwBin: gwBin, tmp: tmp}
	quiesce()
	if err := cfg.makeInputs(); err != nil {
		return nil, fmt.Errorf("making inputs: %w", err)
	}
	first, err := cfg.measure(nil)
	if err != nil {
		return nil, err
	}
	if !trace {
		first.print(os.Stdout)
		return first.result(first.e2e), nil
	}
	// The traced run repeats the workload with spans on; end-to-end
	// numbers come only from the untraced run above, and the difference
	// is the tracing overhead.
	tr := &tracer{origin: time.Now()}
	cfg.tracer = tr
	traced, err := cfg.measure(tr)
	if err != nil {
		return nil, err
	}
	traced.print(os.Stdout)
	untraced := map[string]metric{}
	for name, m := range first.e2e {
		untraced[name] = m
	}
	for name, m := range first.ungated {
		untraced[name] = m
		traced.layer[name] = m
	}
	names := make([]string, 0, len(untraced))
	for name := range untraced {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a, b := untraced[name], traced.e2e[name]
		if m, ok := traced.ungated[name]; ok {
			b = m
		}
		rel := 0.0
		if a.Value != 0 {
			rel = (b.Value - a.Value) / a.Value
		}
		fmt.Printf("tracing overhead  %-26s untraced %.6g  traced %.6g %s  (%+.1f%%)\n", name, a.Value, b.Value, a.Unit, 100*rel)
	}
	path := filepath.Join(root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", wl, seed))
	if err := writeSpans(path, tr.spans); err != nil {
		return nil, err
	}
	fmt.Printf("spans              %d written to %s\n", len(tr.spans), path)
	traced.t.add(first.t)
	traced.valid = traced.valid && first.valid
	return traced.result(traced.layer), nil
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// outcome is one measured run of a workload.
type outcome struct {
	wl  string
	e2e map[string]metric
	// ungated are printed with the end-to-end metrics but are not among
	// them: on a shared machine the p99 latencies, the open-loop query
	// median and the restart times follow the host's scheduling more
	// than the program (see README.md). The traced run records them
	// with the per-layer metrics.
	ungated map[string]metric
	layer   map[string]metric
	notes   []string // printed beside the metrics: sample counts, percentiles
	t       tally
	valid   bool
	invalid string
}

func (o *outcome) result(ms map[string]metric) *result {
	return &result{Correct: o.valid && o.t.failures() == 0, Attempted: max(o.t.attempted, 1), Failed: o.t.failures(), Metrics: ms}
}

func (o *outcome) print(w *os.File) {
	fmt.Fprintf(w, "workload %s\n", o.wl)
	for _, n := range o.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "error_rate         %.6g (%d failures / %d operations attempted: failed %d, shed %d, timed out %d, bad queries %d, mismatched %d)\n",
		o.t.errorRate(), o.t.failures(), o.t.attempted, o.t.failed, o.t.shed, o.t.timedOut, o.t.badQueries, o.t.mismatched)
	if !o.valid {
		fmt.Fprintf(w, "INVALID            %s\n", o.invalid)
	}
	for _, set := range []map[string]metric{o.e2e, o.ungated, o.layer} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%-34s %14.6g %s\n", n, set[n].Value, set[n].Unit)
		}
	}
}

// rng returns the seeded generator for one named input stream.
func rng(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// roundsFor is how many passes over a pool of poolReports reports make
// seconds×rate reports.
func roundsFor(seconds int, rate float64, poolReports int64) int {
	return max(1, int(math.Ceil(float64(seconds)*rate/float64(poolReports))))
}
