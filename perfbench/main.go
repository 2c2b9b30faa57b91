// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload in a single process through the layers' public
// functions, checks every output, prints each metric by name with its
// unit, and ends with one JSON line:
//
//	{"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload fit --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the named workload untraced and reports
// the end-to-end metrics. With --trace 1 it re-runs every workload with
// spans around the calls into each layer and reports the per-layer
// metrics (see layers.go for what each one should move). The metrics
// and their units are those BENCHMARK.json declares.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// procs is the number of CPUs the program gets, fixed so that a
// machine with more cores loads it the same way as the 2-core machine
// the bounds were set on. GOMAXPROCS is procs, except where the load
// generators run in the same process (see serveProcs).
const procs = 2

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result: op accounting plus named metrics.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ops counts attempted and failed ops. A failed output check counts as
// a failed op. Only the goroutine that owns an ops value touches it.
type ops struct {
	attempted, failed int
}

func (o *ops) ok() { o.attempted++ }

func (o *ops) fail(format string, args ...any) {
	o.attempted++
	o.failed++
	if o.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: failed op: "+format+"\n", args...)
	}
}

func (o *ops) add(p ops) {
	o.attempted += p.attempted
	o.failed += p.failed
}

// put records a metric in r and prints it with an optional note (the
// base of a ratio, the percentile of a tail, ...).
func (r *report) put(name string, v float64, unit, note string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) { // a rate over no successful ops
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("  %-36s %14.6g %-5s%s\n", name, v, unit, note)
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

var workloads = map[string]func(options) (report, error){
	"fit":     runFit,
	"serve":   func(o options) (report, error) { return runServe(o, sideScore) },
	"ingest":  func(o options) (report, error) { return runServe(o, sideIngest) },
	"cluster": runCluster,
}

func main() {
	var o options
	var secs, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: fit, serve, ingest or cluster")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed replays the same inputs and ops")
	flag.IntVar(&secs, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs every workload traced and reports the per-layer metrics")
	flag.Parse()
	run, known := workloads[o.workload]
	if !known || secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload fit|serve|ingest|cluster, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	o.seconds = time.Duration(secs) * time.Second
	o.trace = trace == 1

	runtime.GOMAXPROCS(procs)
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d nproc=%s NumCPU=%d go=%s\n",
		o.workload, o.seed, secs, trace, runtime.GOMAXPROCS(0), nproc(), runtime.NumCPU(), runtime.Version())

	decl, err := readDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
		os.Exit(1)
	}
	var rep report
	want := decl.EndToEnd
	if o.trace {
		rep, err = runTraced(o)
		want = decl.PerLayer
		if err == nil {
			printPredictions(rep, want)
		}
	} else {
		rep, err = run(o)
	}
	if err == nil {
		err = checkDeclared(rep, want)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.Correct = rep.Failed == 0
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("attempted=%d failed=%d correct=%v\n", rep.Attempted, rep.Failed, rep.Correct)
	fmt.Println(string(line))
}

// nproc reports what the nproc command prints, which honours CPU
// affinity the way runtime.NumCPU does not always make obvious.
func nproc() string {
	out, err := exec.Command("nproc").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// collect forces a full collection and returns the live heap in MB.
// It collects twice: what sync.Pools drop survives the first
// collection in their victim caches.
func collect() float64 {
	runtime.GC()
	runtime.GC()
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// timeSetup runs setup reps times, each from a collected heap, and
// returns the median wall time in seconds. A single cold set-up is not
// steady enough to gate on, so every workload repeats it.
func timeSetup(reps int, setup func(rep int) error) (float64, error) {
	var ts []float64
	for rep := range reps {
		collect()
		start := time.Now()
		if err := setup(rep); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	fmt.Printf("  set-up runs (s): %s\n", fmtFloats(ts))
	return median(ts), nil
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

// putLatencies reports the median and tail of op latencies (in ms).
// A run stopped by a failed op may hold too few samples for the tail
// rule; it then reports its slowest op, and its failed ops already
// mark it incorrect.
func (r *report) putLatencies(lat []float64) {
	r.put("p50_ms", median(lat), "ms", fmt.Sprintf("%d samples", len(lat)))
	tl, err := tailOf(lat)
	if err != nil {
		slowest := 0.0
		for _, x := range lat {
			slowest = max(slowest, x)
		}
		r.put("tail_ms", slowest, "ms", err.Error()+"; the slowest is reported")
		return
	}
	r.put("tail_ms", tl.value, "ms",
		fmt.Sprintf("p%.3f of %d samples, %d beyond", tl.percentile, tl.samples, tl.beyond))
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
