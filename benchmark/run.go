package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// setups is how many times a plain run builds its deployment; setup_s is
// the median, and the last deployment built is the one measured.
const setups = 5

// opTimeout bounds one operation, so a wedged cluster fails operations
// instead of hanging the run.
const opTimeout = 10 * time.Second

// outDir holds the durable validators' WALs and snapshots (under data/)
// and the spans of traced runs (under spans/), inside the checkout the
// benchmark runs from: the directory run.sh builds in. Tests point it at
// a temporary directory.
var outDir = ".bench_build"

var errRunCap = errors.New("run time cap reached; operation not started")

// runConfig is what every workload receives.
type runConfig struct {
	seed     uint64
	rounds   int
	deadline time.Time
}

// workload is one seeded, fixed-work benchmark workload.
type workload struct {
	name string
	// perSecond is the number of rounds per nominal second of --seconds.
	// The work of a run is fixed by --seconds alone, so a faster program
	// finishes the same work sooner instead of doing more of it.
	perSecond int
	// headline names the operation whose median is latency_p50_ms.
	headline string
	// setup boots a deployment (metered into reg when non-nil) with
	// everything the timed rounds need.
	setup func(cfg runConfig, dir string, reg *obs.Registry) (instance, error)
}

func (w workload) rounds(seconds int) int { return seconds * w.perSecond }

// instance is a set-up workload, ready for its timed rounds.
type instance interface {
	// round performs round i of the closed loop.
	round(r *recorder, i int)
	// check verifies the program's end state against the inputs.
	check(r *recorder)
	close()
}

var workloads = map[string]workload{
	"market": marketWorkload,
	"ingest": ingestWorkload,
	"browse": browseWorkload,
}

// timedPart holds the process-level measurements of one timed part.
type timedPart struct {
	wall     time.Duration
	rates    []float64 // completed operations per second, per slice
	cpuPerOp []float64 // process CPU microseconds per operation, per slice
	alloc    uint64    // bytes allocated
	heapLive uint64    // heap in use after a forced GC at the end
	steal    time.Duration
}

// setUp builds the workload n times and returns the last instance and the
// median set-up time in seconds. Each build gets its own data directory.
func setUp(w workload, cfg runConfig, n int, reg *obs.Registry) (instance, float64, error) {
	var inst instance
	times := make([]float64, 0, n)
	for k := range n {
		if inst != nil {
			inst.close()
		}
		dir := filepath.Join(outDir, "data", fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), k))
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
		start := time.Now()
		var err error
		inst, err = w.setup(cfg, dir, reg)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	fmt.Printf("set-up %s: %.4v s\n", w.name, times)
	slices.Sort(times)
	return inst, times[len(times)/2], nil
}

// cleanData removes this process's data directories.
func cleanData(name string) {
	matches, _ := filepath.Glob(filepath.Join(outDir, "data", fmt.Sprintf("%s-%d-*", name, os.Getpid())))
	for _, m := range matches {
		_ = os.RemoveAll(m) // best effort: a leftover directory only costs disk
	}
}

// nSlices is the number of equal parts the timed rounds are cut into.
// Goodput and CPU per operation are medians over the slices, so a burst
// of contention on a shared host moves one slice, not the result.
const nSlices = 40

// timed runs the closed loop: one client goroutine, one operation
// outstanding at a time, rounds fixed in advance.
func timed(inst instance, rec *recorder, rounds int) timedPart {
	runtime.GC()
	alloc0, steal0 := allocated(), stealTime()
	start := time.Now()
	rec.start(start)
	var tp timedPart
	for s := range nSlices {
		lo, hi := s*rounds/nSlices, (s+1)*rounds/nSlices
		if lo == hi {
			continue
		}
		cpu0, t0, n0 := cpuTime(), time.Now(), rec.completed()
		for i := lo; i < hi; i++ {
			inst.round(rec, i)
		}
		wall, n := time.Since(t0), rec.completed()-n0
		tp.rates = append(tp.rates, float64(n)/wall.Seconds())
		tp.cpuPerOp = append(tp.cpuPerOp, us(cpuTime()-cpu0)/float64(max(n, 1)))
	}
	tp.wall, tp.alloc, tp.steal = time.Since(start), allocated()-alloc0, stealTime()-steal0
	tp.heapLive = settledHeap()
	return tp
}

// settledHeap is the smallest live heap over a few forced GCs spaced
// heapSettle apart, so a background task still holding a transient buffer
// at the end of the timed part (a validator's snapshot encoding, say)
// does not count as state the run retained.
func settledHeap() uint64 {
	var least uint64
	for i := range 3 {
		if i > 0 {
			time.Sleep(heapSettle)
		}
		runtime.GC()
		if h := heapLive(); i == 0 || h < least {
			least = h
		}
	}
	return least
}

const heapSettle = 100 * time.Millisecond

func runPlain(w workload, cfg runConfig) (result, error) {
	defer cleanData(w.name)
	inst, setupS, err := setUp(w, cfg, setups, nil)
	if err != nil {
		return result{}, err
	}
	rec := newRecorder(cfg.deadline, false)
	tp := timed(inst, rec, cfg.rounds)
	inst.check(rec)
	inst.close()
	rec.report(os.Stdout)
	printTimed("plain", tp)
	return result{
		Correct:   rec.correct(),
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics:   endToEnd(w, rec, tp, setupS),
	}, nil
}

// runTraced runs the workload plain and then traced, each on a fresh
// deployment, and reports the traced run's per-layer metrics plus the
// difference between the two runs' end-to-end metrics.
func runTraced(w workload, cfg runConfig) (result, error) {
	defer cleanData(w.name)
	inst, setupS, err := setUp(w, cfg, 1, nil)
	if err != nil {
		return result{}, err
	}
	plainRec := newRecorder(cfg.deadline, false)
	plainTP := timed(inst, plainRec, cfg.rounds)
	inst.check(plainRec)
	inst.close()
	plain := endToEnd(w, plainRec, plainTP, setupS)

	reg := obs.NewRegistry()
	inst, setupS, err = setUp(w, cfg, 1, reg)
	if err != nil {
		return result{}, err
	}
	rec := newRecorder(cfg.deadline, true)
	before, err := readRegistry(reg)
	if err != nil {
		return result{}, err
	}
	tp := timed(inst, rec, cfg.rounds)
	after, err := readRegistry(reg)
	if err != nil {
		return result{}, err
	}
	inst.check(rec)
	inst.close()
	traced := endToEnd(w, rec, tp, setupS)

	plainRec.report(os.Stdout)
	rec.report(os.Stdout)
	printTimed("plain", plainTP)
	printTimed("traced", tp)
	printEndToEnd("plain", plain)
	printEndToEnd("traced", traced)
	rec.tr.printSelfTimes(os.Stdout)
	if err := rec.tr.write(filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: spans not written: %v\n", err)
	}
	return result{
		Correct:   plainRec.correct() && rec.correct(),
		Attempted: plainRec.attempted + rec.attempted,
		Failed:    plainRec.failed + rec.failed,
		Metrics:   perLayer(rec, before, after, plain, traced),
	}, nil
}

func endToEnd(w workload, rec *recorder, tp timedPart, setupS float64) map[string]metric {
	ops := float64(max(rec.completed(), 1))
	return map[string]metric{
		"setup_s":        {setupS, "s"},
		"goodput_ops_s":  {median(tp.rates), "ops/s"},
		"latency_p50_ms": {ms(quantile(rec.durs[w.headline], 0.5)), "ms"},
		"cpu_us_op":      {median(tp.cpuPerOp), "us"},
		"alloc_kb_op":    {float64(tp.alloc) / 1024 / ops, "KiB"},
		"heap_live_mb":   {float64(tp.heapLive) / (1 << 20), "MiB"},
	}
}

// printTimed prints the spread behind the slice medians and the CPU the
// hypervisor took from this host during the timed part: on a shared host
// the main cause of run-to-run spread.
func printTimed(label string, tp timedPart) {
	fmt.Printf("%s timed part: wall %s, slice ops/s %.0f..%.0f, slice cpu us/op %.0f..%.0f, host steal %s\n",
		label, tp.wall.Round(time.Millisecond), slices.Min(tp.rates), slices.Max(tp.rates),
		slices.Min(tp.cpuPerOp), slices.Max(tp.cpuPerOp), tp.steal)
}

func printEndToEnd(label string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s run:", label)
	for _, n := range names {
		fmt.Printf(" %s=%.6g%s", n, m[n].Value, m[n].Unit)
	}
	fmt.Println()
}

// recorder counts, times and (when tracing) spans every operation of a
// timed part, and collects the errors and output mismatches it saw.
type recorder struct {
	deadline  time.Time
	attempted int
	failed    int
	errs      map[string]int
	bad       []string
	durs      map[string][]time.Duration
	tr        *tracer // nil in plain runs
	opID      int
	root      int // span of the operation in progress
}

func newRecorder(deadline time.Time, traced bool) *recorder {
	r := &recorder{deadline: deadline, errs: map[string]int{}, durs: map[string][]time.Duration{}, root: -1}
	if traced {
		r.tr = &tracer{}
	}
	return r
}

func (r *recorder) start(t0 time.Time) {
	if r.tr != nil {
		r.tr.t0 = t0
	}
}

// op performs one operation worth n counted operations (n > 1 for a
// batch of transactions): it times fn, turns a panic into a failure, and
// counts an error as n failed operations. It reports whether fn succeeded.
func (r *recorder) op(name string, n int, fn func(ctx context.Context) error) bool {
	r.attempted += n
	r.opID++
	if time.Now().After(r.deadline) {
		r.fail(name, n, errRunCap)
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if r.tr != nil {
		r.root = r.tr.begin(name, -1, r.opID)
	}
	start := time.Now()
	err := protect(func() error { return fn(ctx) })
	d := time.Since(start)
	if r.tr != nil {
		r.tr.end(r.root)
		r.root = -1
	}
	if err != nil {
		r.fail(name, n, err)
		return false
	}
	r.durs[name] = append(r.durs[name], d)
	return true
}

// step spans one public call inside the operation in progress; without
// tracing it only calls fn.
func (r *recorder) step(name string, fn func() error) error {
	if r.tr == nil {
		return fn()
	}
	id := r.tr.begin(name, r.root, r.opID)
	err := fn()
	r.tr.end(id)
	return err
}

// observe records a duration that is not an operation of its own, such
// as the policy propagation delay.
func (r *recorder) observe(name string, d time.Duration) {
	r.durs[name] = append(r.durs[name], d)
}

// check records the outcome of a correctness check; a non-nil err is an
// output that disagrees with the inputs.
func (r *recorder) check(err error) {
	switch {
	case err == nil:
	case len(r.bad) < 20:
		r.bad = append(r.bad, err.Error())
	case len(r.bad) == 20:
		r.bad = append(r.bad, "(further mismatches elided)")
	}
}

func (r *recorder) fail(name string, n int, err error) {
	r.failed += n
	r.errs[name+": "+err.Error()]++
}

func (r *recorder) completed() int { return r.attempted - r.failed }

func (r *recorder) correct() bool { return len(r.bad) == 0 }

func (r *recorder) report(w io.Writer) {
	keys := make([]string, 0, len(r.errs))
	for k := range r.errs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i == 10 {
			fmt.Fprintf(w, "error: ... %d more distinct errors\n", len(keys)-i)
			break
		}
		fmt.Fprintf(w, "error: %dx %s\n", r.errs[k], k)
	}
	for _, b := range r.bad {
		fmt.Fprintf(w, "mismatch: %s\n", b)
	}
	names := make([]string, 0, len(r.durs))
	for n := range r.durs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := r.durs[n]
		fmt.Fprintf(w, "op %-28s n=%-6d p50=%-10s p99=%s\n", n, len(d),
			quantile(d, 0.5).Round(time.Microsecond), quantile(d, 0.99).Round(time.Microsecond))
	}
}

// protect runs fn, reporting a panic as an error so one broken operation
// cannot end the run.
func protect(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile is the nearest-rank q-quantile (0 for no samples).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user plus system CPU time, every goroutine
// included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// stealTime is the CPU time the hypervisor gave other guests while this
// host's vCPUs wanted to run (the steal column of /proc/stat; 0 where it
// cannot be read). It is printed beside the figures, as the cause of most
// run-to-run spread on a shared host.
func stealTime() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100 on Linux
}

// allocated is the cumulative count of bytes allocated on the heap.
func allocated() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// heapLive is the heap marked live by the last GC.
func heapLive() uint64 { return readMetric("/gc/heap/live:bytes") }
