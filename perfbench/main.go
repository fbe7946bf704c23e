// Command perfbench is the repository's benchmark: end-to-end metrics of a
// LAACAD deployment and of a laacadd job, and, in a separate traced run, the
// per-layer metrics behind them. README.md lists the workloads and metrics.
//
//	bash perfbench/run.sh --workload deploy-1k --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it holds the run's
// stamp (host, Go version, seed) and the raw per-op samples.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"laacad/internal/core"
	"laacad/internal/geom"
)

// bench is one workload, set up and ready to run ops.
type bench interface {
	// run executes the ops with the given indices, checking every output.
	// A nil tracer runs untraced.
	run(ops []int, tr *tracer) (*phase, error)
	close() error
}

type workload struct {
	name string
	// nominalMS is the wall time one op takes on the reference host,
	// untimed preparation and checks included. The op count of a run is
	// --seconds divided by it, so a run does the same work on every commit.
	nominalMS float64
	minOps    int
	// warmOps are run inside every set-up, before the first timed op.
	warmOps []int
	setup   func(seed int64, traced bool) (bench, error)
}

var workloads = []workload{
	{name: "deploy-1k", nominalMS: 800, minOps: 3, warmOps: []int{-1}, setup: newDeploy},
	{name: "heal-10k", nominalMS: 650, minOps: 3, warmOps: []int{-1}, setup: newHeal},
	{name: "daemon-jobs", nominalMS: 12, minOps: 40, warmOps: seq(-40, 0), setup: newDaemon},
}

// phase is what one pass over the ops measured.
type phase struct {
	opMS     []float64 // per op, in op order
	cpuMS    float64   // process CPU time over the timed parts
	allocB   float64   // bytes allocated over the timed parts
	wallS    float64   // wall time the ops/s rate is taken over
	heapMB   float64   // live heap after a forced GC at the end, the last op's state still held
	failures []string  // one line per failed op
	rStar    []float64 // Result.MaxRadius per op
	msgs     []float64 // messages per op
	layers   map[string]float64
	captures []capture // positions for the kernel replays (traced only)
}

// capture is a set of node positions seen during a traced op, with the
// configuration the op ran under.
type capture struct {
	pos []geom.Point
	cfg core.Config
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerMetrics is every per-layer metric with its unit. A workload that does
// not reach a layer reports 0 for it.
var layerMetrics = []struct{ name, unit string }{
	{"scenario.build_ms", "ms"},
	{"core.rounds_per_op", "count"},
	{"core.step_ms_p50", "ms"},
	{"core.heal_first_step_ms", "ms"},
	{"core.remove_ms", "ms"},
	{"core.finalize_ms", "ms"},
	{"core.regions_per_op", "count"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.us_per_region", "us"},
	{"core.invalidation_visits_per_op", "count"},
	{"core.flag_evals_per_op", "count"},
	{"core.spec_wasted_frac", "ratio"},
	{"core.single_wave_frac", "ratio"},
	{"core.levels_per_round", "count"},
	{"core.cpu_per_wall", "ratio"},
	{"core.stepnode_us", "us"},
	{"voronoi.region_us", "us"},
	{"geom.sec_us", "us"},
	{"voronoi.neighbors_per_region", "count"},
	{"voronoi.vertices_per_region", "count"},
	{"wsn.gather_us", "us"},
	{"wsn.ring_us", "us"},
	{"wsn.msgs_per_op", "count"},
	{"wsn.incremental_moves_per_op", "count"},
	{"wsn.rebuilds_per_op", "count"},
	{"boundary.node_us", "us"},
	{"service.submit_ms", "ms"},
	{"service.queue_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.result_ms", "ms"},
	{"service.events_per_job", "count"},
	{"service.result_kb", "KB"},
	{"journal.sync_ms_p50", "ms"},
	{"journal.sync_ms_tail", "ms"},
	{"journal.write_ms_p50", "ms"},
	{"journal.appends_per_job", "count"},
	{"journal.kb_per_job", "KB"},
	{"scenario.self_ms_per_op", "ms"},
	{"core.self_ms_per_op", "ms"},
	{"service.self_ms_per_op", "ms"},
	{"journal.self_ms_per_op", "ms"},
	{"host.ref_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: deploy-1k, heal-10k or daemon-jobs")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 20, "nominal run length; sets the op count")
	trace := fs.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		return o, fmt.Errorf("--seconds must be positive, got %d", *seconds)
	}
	for _, w := range workloads {
		if w.name == *name {
			o.workload = w
			return o, nil
		}
	}
	return o, fmt.Errorf("unknown --workload %q", *name)
}

// opCount is the number of timed ops a run of the given length makes.
func (w workload) opCount(seconds int) int {
	return max(w.minOps, int(math.Round(float64(seconds)*1000/w.nominalMS)))
}

func run(args []string, stdout io.Writer) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	w := o.workload
	ops := seq(0, w.opCount(o.seconds))
	refs := hostRefs()

	var ph *phase
	res := result{Metrics: map[string]metric{}}
	detail := map[string]any{}
	if !o.trace {
		var setupS float64
		if ph, setupS, err = measure(w, o.seed, ops, nil, 3); err != nil {
			return err
		}
		endToEnd(res.Metrics, ph, setupS, detail)
		refs = append(refs, hostRefs()...)
	} else {
		plain, _, err := measure(w, o.seed, ops, nil, 1)
		if err != nil {
			return err
		}
		tr := newTracer()
		if ph, _, err = measure(w, o.seed, ops, tr, 1); err != nil {
			return err
		}
		ph.failures = append(ph.failures, plain.failures...)
		for layer, ms := range tr.selfMS() {
			ph.layers[layer+".self_ms_per_op"] = ms / float64(len(ops))
		}
		if err := replayKernels(ph.layers, ph.captures); err != nil {
			return err
		}
		refs = append(refs, hostRefs()...)
		ph.layers["host.ref_ms"] = median(refs)
		ph.layers["trace.overhead_frac"] = median(ph.opMS)/median(plain.opMS) - 1
		for _, m := range layerMetrics {
			res.Metrics[m.name] = metric{ph.layers[m.name], m.unit}
		}
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
		if err := tr.dump(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		detail["untraced_op_ms"] = plain.opMS
		detail["spans_file"] = path
	}

	res.Attempted = len(ops)
	if o.trace {
		res.Attempted *= 2 // the untraced and the traced pass
	}
	res.Failed = len(ph.failures)
	res.Correct = res.Failed == 0
	detail["op_ms"] = ph.opMS
	detail["fail_frac"] = float64(res.Failed) / float64(res.Attempted)
	detail["failures"] = ph.failures
	detail["msgs_per_op"] = mean(ph.msgs)
	detail["host_ref_ms"] = refs
	line, err := json.Marshal(map[string]any{"stamp": stamp(w.name, o), "detail": detail})
	if err != nil {
		return err
	}
	out := bufio.NewWriter(stdout)
	fmt.Fprintln(out, string(line))
	final, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(final))
	return out.Flush()
}

// measure sets the workload up, runs the ops on it traced by tr (nil for an
// untraced run) and closes it. It returns the phase and the median set-up
// time of reps set-ups.
func measure(w workload, seed int64, ops []int, tr *tracer, reps int) (*phase, float64, error) {
	b, setupS, err := setUp(w, seed, tr != nil, reps)
	if err != nil {
		return nil, 0, err
	}
	ph, err := b.run(ops, tr)
	if cerr := b.close(); err == nil {
		err = cerr
	}
	return ph, setupS, err
}

// setUp builds the workload reps times, each with its warm-up ops, keeps
// the last and returns it with the median set-up time.
func setUp(w workload, seed int64, traced bool, reps int) (bench, float64, error) {
	var times []float64
	var b bench
	for r := 0; r < reps; r++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		if b, err = w.setup(seed, traced); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		ph, err := b.run(w.warmOps, nil)
		if err == nil && len(ph.failures) > 0 {
			err = errors.New(ph.failures[0])
		}
		if err != nil {
			b.close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return b, median(times), nil
}

func endToEnd(m map[string]metric, ph *phase, setupS float64, detail map[string]any) {
	n := float64(len(ph.opMS))
	p := tailPercentile(len(ph.opMS))
	m["setup_s"] = metric{setupS, "s"}
	m["op_ms_p50"] = metric{percentile(ph.opMS, 50), "ms"}
	m["op_ms_tail"] = metric{percentile(ph.opMS, p), "ms"}
	m["ops_per_s"] = metric{n / ph.wallS, "1/s"}
	m["cpu_ms_per_op"] = metric{ph.cpuMS / n, "ms"}
	m["alloc_mb_per_op"] = metric{ph.allocB / n / 1e6, "MB"}
	m["heap_live_mb"] = metric{ph.heapMB, "MB"}
	m["r_star_km"] = metric{median(ph.rStar), "km"}
	m["ok_frac"] = metric{1 - float64(len(ph.failures))/n, "ratio"}
	detail["tail_percentile"] = p
	detail["tail_samples_beyond"] = len(ph.opMS) * (1000 - tailPerMille(len(ph.opMS))) / 1000
}

// tailPercentile is the highest percentile of n samples with at least ten
// samples beyond it.
func tailPercentile(n int) float64 {
	return float64(tailPerMille(n)) / 10
}

func tailPerMille(n int) int {
	for _, pm := range []int{999, 995, 990, 980, 950, 900, 800, 750, 600} {
		if n*(1000-pm) >= 10*1000 {
			return pm
		}
	}
	return 500
}

// percentile interpolates linearly between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// seq returns lo, lo+1, …, hi-1.
func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// cpuMS is the process's user plus system CPU time.
func cpuMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

func allocBytes() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc)
}

func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

var refSink uint64

// hostRefs times a fixed pure-Go loop three times. It tracks how fast the
// host is running at the moment, and is diagnostic only: no metric is
// divided by it.
func hostRefs() []float64 {
	out := make([]float64, 3)
	for r := range out {
		t0 := time.Now()
		x := uint64(r + 1)
		for i := 0; i < 30_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			x ^= x >> 29
		}
		refSink += x
		out[r] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return out
}

func stamp(name string, o options) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"ops":        o.workload.opCount(o.seconds),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
