// Command perfbench is the repository benchmark: three seeded workloads
// driven in-process through the public surfaces of the reasoning service —
// the HTTP API on loopback, the durable store and replication for the
// registry feed, and the layer packages' exported calls for the traced run.
//
//	bash perfbench/run.sh --workload point_reads --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result object; the line before it
// is the full report of the run (every metric by name, unit and sample
// count). perfbench/README.md records the workloads and which end-to-end
// metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

// env is what every workload gets from the command line.
type env struct {
	seed  int64
	d     time.Duration // length of the timed phase
	trace *tracer       // nil on untraced runs
	dir   string        // private scratch directory of this run
}

// outcome is what a workload hands back.
type outcome struct {
	setups       []time.Duration
	light, heavy []float64 // latency samples of the two request classes, ms
	detail       report    // every workload-specific end-to-end metric
	layers       report    // per-layer metrics (traced runs)
	attempted    int
	failed       int
	problems     []string // failed output checks
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// endToEnd names the metrics of an untraced run; every workload reports all
// of them. Each workload's requests fall in two classes, light and heavy
// (see README.md). Tail percentiles are in the report line only: over a
// run's few hundred samples they spread too far from seed to seed to bound.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"light_p50_ms", "ms"},
	{"heavy_p50_ms", "ms"},
	{"live_heap_mb", "MB"},
}

// perLayer names the metrics of a traced run. Every workload reports all of
// them; a layer the workload leaves idle reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"reasonapi.hit_rtt_us", "us"},
	{"reasonapi.self_us", "us"},
	{"qcache.hit_frac", "ratio"},
	{"qcache.do_hit_us", "us"},
	{"qcache.invalidations_per_write", "count"},
	{"datalog.parse_us", "us"},
	{"relstore.extract_ms", "ms"},
	{"datalog.magic_rewrite_us", "us"},
	{"datalog.assert_ms", "ms"},
	{"datalog.goal_chase_ms", "ms"},
	{"datalog.goal_derived_per_answer", "count"},
	{"whatif.baseline_ms", "ms"},
	{"datalog.baseline_rounds", "count"},
	{"datalog.baseline_derived", "count"},
	{"datalog.baseline_index_hits", "count"},
	{"datalog.baseline_index_scans", "count"},
	{"datalog.baseline_worker_util", "ratio"},
	{"whatif.evaluate_ms", "ms"},
	{"whatif.affected_sources", "count"},
	{"pg.overlay_apply_us", "us"},
	{"ivm.apply_ms", "ms"},
	{"ivm.affected_sources", "count"},
	{"ivm.incremental_commits", "count"},
	{"ivm.full_rebuilds", "count"},
	{"persist.sync_ms", "ms"},
	{"persist.fsyncs_per_write", "count"},
	{"persist.wal_bytes_per_write", "bytes"},
	{"persist.snapshot_ms", "ms"},
	{"replication.frames_applied", "count"},
	{"replication.lag_records_max", "count"},
	{"replication.bootstrap_ms", "ms"},
	{"store.commit_ms", "ms"},
	{"store.journal_len", "count"},
	{"core.embed_ms", "ms"},
	{"core.match_ms", "ms"},
	{"core.comparisons", "count"},
	{"core.blocks", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"bench.gen_late_ms", "ms"},
	{"bench.trace_overhead_us", "us"},
}

var workloads = map[string]func(env) (*outcome, error){
	"point_reads":    runPointReads,
	"registry_churn": runRegistryChurn,
	"analyst_jobs":   runAnalystJobs,
}

func main() {
	workload := flag.String("workload", "", "point_reads, registry_churn or analyst_jobs")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	data := flag.String("data", ".bench_build/run", "parent of the run's scratch directory")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*data, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*data, *workload+"-")
	if err != nil {
		fatal(err)
	}
	e := env{seed: *seed, d: time.Duration(*seconds) * time.Second, dir: dir}
	if *trace == 1 {
		e.trace = newTracer()
	}
	out, err := run(e)
	if err == nil && e.trace != nil {
		err = e.trace.write(filepath.Join(*data, fmt.Sprintf("spans-%s-%d.json", *workload, *seed)))
	}
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "output check failed:", p)
	}

	e2e := report{}
	setups := make([]float64, len(out.setups))
	for i, s := range out.setups {
		setups[i] = s.Seconds()
	}
	e2e.set("setup_s", median(setups), "s")
	e2e["light_p50_ms"] = metric{Value: median(out.light), Unit: "ms", N: len(out.light)}
	e2e["heavy_p50_ms"] = metric{Value: median(out.heavy), Unit: "ms", N: len(out.heavy)}
	e2e.set("live_heap_mb", out.detail["live_heap_mb"].Value, "MB")
	out.detail.set("op_fail_frac", ratio(float64(out.failed), float64(out.attempted)), "ratio")
	out.detail.lat("light", out.light, tailPct(len(out.light)))
	out.detail.lat("heavy", out.heavy, tailPct(len(out.heavy)))

	full := map[string]any{"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace, "end_to_end": e2e, "detail": out.detail}
	names := endToEnd
	final := e2e
	if e.trace != nil {
		full["per_layer"] = out.layers
		names, final = perLayer, out.layers
	}
	if err := printJSON(full); err != nil {
		fatal(err)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]value{}}
	for _, m := range names {
		res.Metrics[m.name] = value{final[m.name].Value, m.unit}
	}
	if err := printJSON(res); err != nil {
		fatal(err)
	}
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// newLayers returns a per-layer report with every metric present at 0.
func newLayers() report {
	r := report{}
	for _, m := range perLayer {
		r.set(m.name, 0, m.unit)
	}
	return r
}

// setMedianUs / setMedianMs record the median of a duration sample.
func (r report) setMedianUs(name string, ds []time.Duration) { r.durations(name, ds, us, "us") }
func (r report) setMedianMs(name string, ds []time.Duration) { r.durations(name, ds, ms, "ms") }

func (r report) durations(name string, ds []time.Duration, conv func(time.Duration) float64, unit string) {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = conv(d)
	}
	r[name] = metric{Value: median(xs), Unit: unit, N: len(xs)}
}

// runtimeProbe samples the Go runtime over the timed phase: the largest live
// heap any GC cycle left behind, bytes allocated and the GC's CPU share.
type runtimeProbe struct {
	stop, done chan struct{}
	maxLive    uint64
	start      []metrics.Sample
}

var runtimeNames = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// startRuntimeProbe collects garbage left by set-up, then samples until
// finish is called.
func startRuntimeProbe() *runtimeProbe {
	runtime.GC()
	p := &runtimeProbe{stop: make(chan struct{}), done: make(chan struct{}), start: readRuntime()}
	go func() {
		defer close(p.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			if live := readRuntime()[0].Value.Uint64(); live > p.maxLive {
				p.maxLive = live
			}
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// finish stops sampling and records live_heap_mb in detail and the
// allocation and GC metrics in layers, per operation.
func (p *runtimeProbe) finish(detail, layers report, ops int) {
	close(p.stop)
	<-p.done
	end := readRuntime()
	detail.set("live_heap_mb", float64(p.maxLive)/(1<<20), "MB")
	allocs := float64(end[1].Value.Uint64() - p.start[1].Value.Uint64())
	layers.set("runtime.alloc_bytes_per_op", ratio(allocs, float64(ops)), "bytes")
	gc := end[2].Value.Float64() - p.start[2].Value.Float64()
	total := end[3].Value.Float64() - p.start[3].Value.Float64()
	layers.set("runtime.gc_cpu_frac", ratio(gc, total), "ratio")
}

// setupRepeats is how many times each run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

// setUp runs build setupRepeats times, tearing down all but the last rig.
func setUp[R any](build func(i int) (R, error), teardown func(R) error) (R, []time.Duration, error) {
	var rig R
	var times []time.Duration
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		r, err := build(i)
		if err != nil {
			return rig, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		times = append(times, time.Since(start))
		if i < setupRepeats-1 {
			if err := teardown(r); err != nil {
				return rig, nil, fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
			continue
		}
		rig = r
	}
	return rig, times, nil
}
