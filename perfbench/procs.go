package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"rtf/internal/obs"
)

// The process side of the benchmark: building the serving binaries from
// the checkout, spawning them on free loopback ports, reading their
// /metrics and /proc counters, and killing every child on every exit
// path.

// buildBinaries compiles rtf-serve and rtf-gateway from the checkout at
// root into dir.
func buildBinaries(root, dir string) (serveBin, gatewayBin string, err error) {
	serveBin = filepath.Join(dir, "rtf-serve")
	gatewayBin = filepath.Join(dir, "rtf-gateway")
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/rtf-serve", "./cmd/rtf-gateway")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", "", fmt.Errorf("building rtf-serve and rtf-gateway: %v\n%s", err, out.String())
	}
	return serveBin, gatewayBin, nil
}

// proc is one running serving process.
type proc struct {
	name     string
	bin      string
	args     []string
	cmd      *exec.Cmd
	addr     string // ingest/query listener
	metrics  string // /metrics listener
	scanDone chan struct{}
	waitErr  error
	waited   bool
}

// children is every process the benchmark started and has not yet
// reaped; killAll empties it on every exit path.
var children struct {
	mu    sync.Mutex
	procs map[*proc]bool
}

// start spawns bin and waits for its logfmt "listening" line, which
// carries the bound ingest and metrics addresses. The children die with
// the generator even if it is killed without a chance to clean up.
func start(name, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, bin: bin, args: args, scanDone: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	children.mu.Lock()
	if children.procs == nil {
		children.procs = make(map[*proc]bool)
	}
	children.procs[p] = true
	children.mu.Unlock()

	type listen struct{ addr, metrics string }
	ready := make(chan listen, 1)
	var tail []string // last lines, for the error message of a failed start
	var tailMu sync.Mutex
	go func() {
		defer close(p.scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			kv, ok := obs.ParseLogLine(line)
			if ok && kv["msg"] == "listening" && kv["addr"] != "" {
				select {
				case ready <- listen{kv["addr"], kv["metrics"]}:
				default:
				}
			}
			if ok && kv["level"] == "error" {
				fmt.Fprintf(os.Stderr, "[%s] %s\n", name, line)
			}
			tailMu.Lock()
			if tail = append(tail, line); len(tail) > 5 {
				tail = tail[1:]
			}
			tailMu.Unlock()
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case l := <-ready:
		p.addr, p.metrics = l.addr, l.metrics
		return p, nil
	case <-p.scanDone:
		p.kill()
		tailMu.Lock()
		defer tailMu.Unlock()
		return nil, fmt.Errorf("%s exited before listening: %v; last output: %s", name, p.waitErr, strings.Join(tail, " | "))
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, fmt.Errorf("%s did not listen within 30s", name)
	}
}

// kill SIGKILLs the process and reaps it. It is idempotent.
func (p *proc) kill() {
	children.mu.Lock()
	defer children.mu.Unlock()
	p.killLocked()
}

func (p *proc) killLocked() {
	if p.waited {
		return
	}
	_ = p.cmd.Process.Kill()
	<-p.scanDone
	p.waitErr = p.cmd.Wait()
	p.waited = true
	delete(children.procs, p)
}

// killAll kills and reaps every child still running.
func killAll() {
	children.mu.Lock()
	defer children.mu.Unlock()
	for p := range children.procs {
		p.killLocked()
	}
}

// restart starts the same binary again with the same arguments, bound
// to the address the killed process had. The port is a free one the
// kernel chose, from its range for outgoing connections, so until the
// new process listens any connection being made (the process's own
// dials to its backends among them) may take it; a start that finds the
// port taken is tried again.
func (p *proc) restart() (*proc, error) {
	args := append([]string(nil), p.args...)
	for i := range args {
		if args[i] == "-addr" && i+1 < len(args) {
			args[i+1] = p.addr
		}
	}
	for attempt := 1; ; attempt++ {
		q, err := start(p.name, p.bin, args...)
		if err == nil || attempt == 20 || !strings.Contains(err.Error(), "address already in use") {
			return q, err
		}
		time.Sleep(time.Millisecond)
	}
}

// cpuTicks is user+system CPU time of the process so far, in clock
// ticks, from /proc/<pid>/stat.
func (p *proc) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", p.name)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat for %s", p.name)
	}
	return utime + stime, nil
}

// clockTicks is the kernel's USER_HZ, fixed at 100 on Linux.
const clockTicks = 100

// hwmKB is the process's peak resident set (VmHWM) in KiB.
func (p *proc) hwmKB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				return strconv.ParseInt(f[1], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}

// scrape reads the process's /metrics snapshot.
func (p *proc) scrape() (obs.Snapshot, error) {
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get("http://" + p.metrics + "/metrics")
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer resp.Body.Close()
	var s obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return obs.Snapshot{}, fmt.Errorf("decoding %s metrics: %w", p.name, err)
	}
	return s, nil
}

// procSample is one reading of a process's counters.
type procSample struct {
	ticks int64
	snap  obs.Snapshot
}

func (p *proc) sample() (procSample, error) {
	t, err := p.cpuTicks()
	if err != nil {
		return procSample{}, err
	}
	s, err := p.scrape()
	return procSample{ticks: t, snap: s}, err
}

// counterDelta is a counter's growth between two samples.
func counterDelta(a, b procSample, name string) int64 {
	return b.snap.Counters[name] - a.snap.Counters[name]
}

// histDelta is the observations a histogram gained between two samples.
func histDelta(a, b procSample, name string) obs.HistSnapshot {
	hb := b.snap.Histograms[name]
	ha, ok := a.snap.Histograms[name]
	if !ok || len(ha.Counts) != len(hb.Counts) {
		return hb
	}
	d := obs.HistSnapshot{Count: hb.Count - ha.Count, Sum: hb.Sum - ha.Sum, Bounds: hb.Bounds,
		Counts: make([]int64, len(hb.Counts))}
	for i := range hb.Counts {
		d.Counts[i] = hb.Counts[i] - ha.Counts[i]
	}
	return d
}

// mergeHist adds histogram b into a (same bounds).
func mergeHist(a, b obs.HistSnapshot) obs.HistSnapshot {
	if a.Count == 0 && len(a.Counts) == 0 {
		return b
	}
	if len(a.Counts) != len(b.Counts) {
		return a
	}
	out := obs.HistSnapshot{Count: a.Count + b.Count, Sum: a.Sum + b.Sum, Bounds: a.Bounds, Counts: make([]int64, len(a.Counts))}
	for i := range a.Counts {
		out.Counts[i] = a.Counts[i] + b.Counts[i]
	}
	return out
}

// hostSteal reads the machine-wide steal and total CPU ticks from
// /proc/stat: time the hypervisor gave this machine's CPUs to others.
func hostSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
