package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"hido/internal/cube"
	"hido/internal/dataset"
	"hido/internal/discretize"
	"hido/internal/grid"
	"hido/internal/obs"
	"hido/internal/stream"
	"hido/internal/synth"
	"hido/internal/xrand"
)

// The fit workload cycles over fitWindows Musk-shaped windows times
// fitSeeds search seeds, so a run's median rests on many inputs and not
// on how one window happens to fall.
const (
	fitWindows     = 4
	fitSeeds       = 4
	fitSetupReps   = 3
	fitTracedOps   = 8
	countSample    = 4096
	countChunk     = 64
	canaryDataSeed = 20011
	canaryFitSeed  = 7
)

// Canary: a fixed window and fit seed whose model digest and planted
// outlier hits were recorded when the benchmark was defined. A run that
// produces another model, or flags fewer planted outliers, fails its
// check: the fit must stay deterministic across runs and commits, and a
// speed-up may not cost detection.
const (
	canaryDigest  = "451052f25a8f3c94a9ccef74ae5ecf418ccfecf8e54f7ca0afb2e1fa887df34e"
	canaryFlagged = 2
)

// fitCase is one window of the fit workload: the Musk-shaped reference
// window (normal records only) and the planted outliers held out as a
// probe, which a good model flags.
type fitCase struct {
	window, probe *dataset.Dataset
}

// musk returns the Musk profile with enough extra records that its
// normal records alone have the Musk shape (6598×160).
func musk() synth.Profile {
	p, err := synth.ProfileByName("Musk")
	if err != nil {
		panic(err) // the profile table is compiled in
	}
	p.N += p.Outliers
	return p
}

func newFitCase(seed uint64) (fitCase, error) {
	ds, err := musk().Generate(seed)
	if err != nil {
		return fitCase{}, err
	}
	var normal, planted []int
	for i := range ds.N() {
		if ds.Label(i) == synth.LabelOutlier {
			planted = append(planted, i)
		} else {
			normal = append(normal, i)
		}
	}
	return fitCase{window: ds.SelectRows(normal), probe: ds.SelectRows(planted)}, nil
}

// fitOp is one op of the seeded sequence: which window, which seed.
type fitOp struct {
	window int
	seed   uint64
}

// fitPlan makes the run's inputs and op cycle from the workload seed.
func fitPlan(seed uint64) ([]fitCase, []fitOp, error) {
	r := xrand.New(seed)
	cases := make([]fitCase, fitWindows)
	for i := range cases {
		var err error
		if cases[i], err = newFitCase(r.Uint64()); err != nil {
			return nil, nil, err
		}
	}
	var cycle []fitOp
	for w := range fitWindows {
		for range fitSeeds {
			cycle = append(cycle, fitOp{window: w, seed: r.Uint64()})
		}
	}
	r.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	return cases, cycle, nil
}

func fitOptions(seed uint64) stream.Options {
	return stream.Options{Phi: musk().Phi, Seed: seed}
}

// modelCheck is what an op's output is checked against: the model
// digest and planted-outlier hits of the first fit of the same input.
type modelCheck struct {
	digest  string
	flagged int
}

func checkOf(m *stream.Monitor, probe *dataset.Dataset) (modelCheck, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return modelCheck{}, err
	}
	sum := sha256.Sum256(buf.Bytes())
	flagged := 0
	for _, a := range m.ScoreBatch(probe) {
		if a.Flagged() {
			flagged++
		}
	}
	return modelCheck{digest: hex.EncodeToString(sum[:]), flagged: flagged}, nil
}

// checker remembers the first result for each op and compares later
// ones against it.
type checker struct {
	want map[fitOp]modelCheck
}

func (c *checker) check(o *ops, op fitOp, got modelCheck) bool {
	want, seen := c.want[op]
	switch {
	case !seen:
		c.want[op] = got
	case got != want:
		o.fail("fit window=%d seed=%d: model %s/%d planted hits, first fit gave %s/%d",
			op.window, op.seed, got.digest[:12], got.flagged, want.digest[:12], want.flagged)
		return false
	}
	o.ok()
	return true
}

// checkCanary fits the canary window and compares it with the recorded
// model and detection rate.
func checkCanary(o *ops) error {
	c, err := newFitCase(canaryDataSeed)
	if err != nil {
		return err
	}
	m, err := stream.NewMonitor(c.window, fitOptions(canaryFitSeed))
	if err != nil {
		return err
	}
	got, err := checkOf(m, c.probe)
	if err != nil {
		return err
	}
	fmt.Printf("  canary model %s, %d of %d planted outliers flagged\n", got.digest, got.flagged, c.probe.N())
	switch {
	case got.flagged < canaryFlagged:
		o.fail("canary flags %d planted outliers, the recorded fit flags %d", got.flagged, canaryFlagged)
	case got.digest != canaryDigest:
		o.fail("canary model %s differs from the recorded %s", got.digest, canaryDigest)
	default:
		o.ok()
	}
	return nil
}

// runFit measures production fits: one op is stream.NewMonitor on a
// Musk-shaped window, what a hidod fit job runs.
func runFit(o options) (report, error) {
	cases, cycle, err := fitPlan(o.seed)
	if err != nil {
		return report{}, err
	}
	var rep report
	var cnt ops
	chk := checker{want: map[fitOp]modelCheck{}}
	fit := func(op fitOp) (*stream.Monitor, error) {
		return stream.NewMonitor(cases[op.window].window, fitOptions(op.seed))
	}
	var setupMons []*stream.Monitor
	setup, err := timeSetup(fitSetupReps, func(rep int) error {
		m, err := fit(cycle[rep])
		setupMons = append(setupMons, m)
		return err
	})
	if err != nil {
		return report{}, err
	}
	for i, m := range setupMons {
		got, err := checkOf(m, cases[cycle[i].window].probe)
		if err != nil {
			return report{}, err
		}
		chk.check(&cnt, cycle[i], got)
	}
	setupMons = nil
	// The inputs stay live through the run; heap_live_mb is what the
	// program keeps beyond them.
	base := collect()

	var last *stream.Monitor
	lat, busy := closedLoop(o.seconds, len(cycle), func(i int) (time.Duration, bool) {
		op := cycle[i%len(cycle)]
		t := time.Now()
		m, err := fit(op)
		d := time.Since(t)
		if err != nil {
			cnt.fail("fit window=%d seed=%d: %v", op.window, op.seed, err)
			return d, false
		}
		got, err := checkOf(m, cases[op.window].probe)
		if err != nil {
			cnt.fail("saving fit: %v", err)
			return d, false
		}
		last = m
		return d, chk.check(&cnt, op, got)
	})
	heap := collect() - base
	runtime.KeepAlive(last)
	runtime.KeepAlive(cases)
	if err := checkCanary(&cnt); err != nil {
		return report{}, err
	}
	hits := 0
	for _, op := range cycle {
		if c, ok := chk.want[op]; ok {
			fmt.Printf("  model window=%d seed=%d %s, %d planted outliers flagged\n", op.window, op.seed, c.digest, c.flagged)
			hits += c.flagged
		}
	}
	rows := len(lat) * cases[0].window.N()

	fmt.Println("fit: end-to-end")
	rep.put("setup_s", setup, "s", fmt.Sprintf("median of the process's first %d fits, each from a collected heap", fitSetupReps))
	rep.putLatencies(lat)
	rep.put("rows_per_s", float64(rows)/busy.Seconds(), "1/s",
		fmt.Sprintf("%d window rows fitted in %.3f s of fits", rows, busy.Seconds()))
	rep.put("heap_live_mb", heap, "MB", "live heap with the last model held, after a forced GC, minus the inputs'")
	rep.Attempted, rep.Failed = cnt.attempted, cnt.failed
	return rep, nil
}

// fitTrace collects what the observer reports during one traced fit.
type fitTrace struct {
	mu       sync.Mutex
	restarts []obs.SummaryEvent
	restartT []time.Time
	total    *obs.SummaryEvent
	totalT   time.Time
}

func (f *fitTrace) OnGeneration(obs.GenerationEvent) {}
func (f *fitTrace) OnProgress(obs.ProgressEvent)     {}
func (f *fitTrace) OnDone(e obs.SummaryEvent) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if e.Algo == "evo-restarts" {
		f.total, f.totalT = &e, time.Now()
		return
	}
	f.restarts = append(f.restarts, e)
	f.restartT = append(f.restartT, time.Now())
}

// fitLayers accumulates the per-op layer measurements of the traced
// fit pass.
type fitLayers struct {
	discretize, build, search, self []float64 // ms per op
	countNs, nsPerWord, countShare  []float64
	evals, gens                     float64
	hits, misses                    float64
	allocs, allocMB, gcs            []float64
}

// traceFit re-runs fitTracedOps ops of the fit cycle, first untraced
// and then with spans around each layer call, and reports the per-layer
// metrics.
func traceFit(o options, rec *recorder, rep *report, cnt *ops) error {
	cases, cycle, err := fitPlan(o.seed)
	if err != nil {
		return err
	}
	chk := checker{want: map[fitOp]modelCheck{}}
	// Warm up once so neither pass pays the process's first fit.
	if _, err := stream.NewMonitor(cases[cycle[0].window].window, fitOptions(cycle[0].seed)); err != nil {
		return err
	}
	var plain []float64
	for i := range fitTracedOps {
		op := cycle[i%len(cycle)]
		t := time.Now()
		m, err := stream.NewMonitor(cases[op.window].window, fitOptions(op.seed))
		plain = append(plain, ms(time.Since(t)))
		if err != nil {
			return err
		}
		got, err := checkOf(m, cases[op.window].probe)
		if err != nil {
			return err
		}
		chk.check(cnt, op, got)
	}

	var L fitLayers
	var traced []float64
	for i := range fitTracedOps {
		op := cycle[i%len(cycle)]
		c := cases[op.window]
		trace := fmt.Sprintf("fit-%d", i)
		root, endRoot := rec.begin(trace, 0, "fit.op")

		ft := &fitTrace{}
		opt := fitOptions(op.seed)
		opt.Observer = ft
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mon, endMon := rec.begin(trace, root, "stream.NewMonitor")
		t := time.Now()
		m, err := stream.NewMonitor(c.window, opt)
		wall := time.Since(t)
		endMon()
		runtime.ReadMemStats(&after)
		if err != nil {
			endRoot()
			return err
		}
		traced = append(traced, ms(wall))
		got, err := checkOf(m, c.probe)
		if err != nil {
			endRoot()
			return err
		}
		chk.check(cnt, op, got)
		if ft.total == nil {
			endRoot()
			return fmt.Errorf("fit observer saw no restarts summary")
		}
		search := rec.add(trace, mon, "core.search", rec.at(ft.totalT.Add(-ft.total.Elapsed)), rec.at(ft.totalT))
		for j, e := range ft.restarts {
			rec.add(trace, search, "core.evolutionary", rec.at(ft.restartT[j].Add(-e.Elapsed)), rec.at(ft.restartT[j]))
		}

		// Standalone calls on the same window time the layers that
		// NewMonitor runs before its search.
		_, end := rec.begin(trace, root, "discretize.Fit")
		t = time.Now()
		g := discretize.Fit(c.window, opt.Phi, discretize.EquiDepth)
		dDisc := time.Since(t)
		end()
		_, end = rec.begin(trace, root, "grid.Build")
		t = time.Now()
		ix := grid.Build(g)
		dBuild := time.Since(t)
		end()
		_, end = rec.begin(trace, root, "grid.Count")
		cubes, countNs := timeCounts(ix, m.K(), op.seed)
		end()
		endRoot()
		checkCounts(cnt, g, ix, cubes)

		st := m.FitStats()
		L.discretize = append(L.discretize, ms(dDisc))
		L.build = append(L.build, ms(dBuild))
		L.search = append(L.search, ms(ft.total.Elapsed))
		L.self = append(L.self, ms(wall-dDisc-dBuild-ft.total.Elapsed))
		L.countNs = append(L.countNs, countNs)
		words := (c.window.N() + 63) / 64
		L.nsPerWord = append(L.nsPerWord, countNs/float64(m.K()*words))
		L.countShare = append(L.countShare, float64(st.Misses)*countNs/float64(ft.total.Elapsed))
		L.evals += float64(ft.total.Evaluations)
		L.gens += float64(ft.total.Generations)
		L.hits += float64(st.Hits)
		L.misses += float64(st.Misses)
		L.allocs = append(L.allocs, float64(after.Mallocs-before.Mallocs))
		L.allocMB = append(L.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		L.gcs = append(L.gcs, float64(after.NumGC-before.NumGC))
	}

	n := float64(fitTracedOps)
	fmt.Printf("fit: per layer (%d ops traced)\n", fitTracedOps)
	printLayers("fit", rec.snapshot(), "fit.op")
	rep.put("discretize.fit_ms", median(L.discretize), "ms", "")
	rep.put("grid.build_ms", median(L.build), "ms", "")
	rep.put("core.search_ms", median(L.search), "ms", "restarts wall time from the observer")
	rep.put("stream.fit_self_ms", median(L.self), "ms",
		"NewMonitor - discretize - build - search; near 0 it can read negative, the parts being timed apart")
	rep.put("core.evaluations", L.evals/n, "count", "per fit")
	rep.put("core.generations", L.gens/n, "count", "per fit")
	hr := ratio{L.hits, L.hits + L.misses}
	rep.put("grid.cache_hit_ratio", hr.value(), "ratio", hr.note("count-cache lookups"))
	rep.put("grid.count_ns", median(L.countNs), "ns", fmt.Sprintf("median of %d-count chunks over %d sampled k-cubes", countChunk, countSample))
	rep.put("bitset.ns_per_word", median(L.nsPerWord), "ns", "grid.count_ns / (k × words per bitmap)")
	rep.put("core.count_share", median(L.countShare), "ratio", "cache misses × grid.count_ns / core.search_ms")
	rep.put("runtime.allocs_per_fit", median(L.allocs), "count", "")
	rep.put("runtime.alloc_mb_per_fit", median(L.allocMB), "MB", "")
	rep.put("runtime.gc_cycles_per_fit", median(L.gcs), "count", "")
	rep.put("trace.overhead_ms.fit", median(traced)-median(plain), "ms",
		fmt.Sprintf("traced %.3f ms - untraced %.3f ms NewMonitor median", median(traced), median(plain)))
	return nil
}

// timeCounts times grid.Index.Count over a seeded sample of k-cubes,
// in chunks so that the clock reads do not dominate, and returns the
// sample with the median ns per count.
func timeCounts(ix *grid.Index, k int, seed uint64) ([]cube.Cube, float64) {
	r := xrand.New(seed)
	cubes := make([]cube.Cube, countSample)
	for i := range cubes {
		c := cube.New(ix.D)
		for _, j := range r.Sample(ix.D, k) {
			c[j] = uint16(1 + r.Intn(ix.Phi))
		}
		cubes[i] = c
	}
	var chunks []float64
	for lo := 0; lo < len(cubes); lo += countChunk {
		t := time.Now()
		for _, c := range cubes[lo : lo+countChunk] {
			countSink += ix.Count(c)
		}
		chunks = append(chunks, float64(time.Since(t).Nanoseconds())/countChunk)
	}
	return cubes, median(chunks)
}

// countSink keeps the timed counts live.
var countSink int

// checkCounts compares each sampled count with the naive scan.
func checkCounts(cnt *ops, g *discretize.Grid, ix *grid.Index, cubes []cube.Cube) {
	for _, c := range cubes {
		if got, want := ix.Count(c), grid.NaiveCount(g, c); got != want {
			cnt.fail("grid.Index.Count(%v) = %d, the naive scan counts %d", c, got, want)
			return
		}
	}
	cnt.ok()
}
