package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"hido/internal/cluster"
	"hido/internal/dataset"
	"hido/internal/metrics"
	"hido/internal/stream"
	"hido/internal/synth"
	"hido/internal/xrand"
)

// The cluster workload: clusterShards storage nodes each hold a
// contiguous part of a BreastCancer-shaped window, and one caller runs
// distributed fits in a closed loop, cycling over clusterFitSeeds
// seeds.
const (
	clusterShards    = 2
	clusterFitSeeds  = 8
	clusterSetupReps = 3
	clusterTracedOps = clusterFitSeeds
	clusterFitLimit  = time.Minute
)

// clusterRPCs are the storage RPCs a distributed fit makes.
var clusterRPCs = []string{"rows", "grid", "count", "cover"}

func breastCancer() synth.Profile {
	p, err := synth.ProfileByName("BreastCancer")
	if err != nil {
		panic(err) // the profile table is compiled in
	}
	return p
}

// clusterPlan is the seeded input of one run: the window, its shards,
// the fit seeds and each seed's single-node model.
type clusterPlan struct {
	window *dataset.Dataset
	shards []*dataset.Dataset
	seeds  []uint64
	want   map[uint64][]byte
}

func newClusterPlan(seed uint64) (*clusterPlan, error) {
	window, err := breastCancer().Generate(seed)
	if err != nil {
		return nil, err
	}
	p := &clusterPlan{window: window, want: map[uint64][]byte{}}
	n := window.N()
	for i := range clusterShards {
		rows := make([]int, 0, n/clusterShards+1)
		for r := i * n / clusterShards; r < (i+1)*n/clusterShards; r++ {
			rows = append(rows, r)
		}
		p.shards = append(p.shards, window.SelectRows(rows))
	}
	r := xrand.New(seed ^ 0xc1)
	for range clusterFitSeeds {
		s := r.Uint64()
		p.seeds = append(p.seeds, s)
		// The invariant the distributed fit keeps: its model is the
		// single-node fit of the concatenated shards, byte for byte.
		m, err := stream.NewMonitor(window, stream.Options{Phi: breastCancer().Phi, Seed: s})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			return nil, err
		}
		p.want[s] = buf.Bytes()
	}
	return p, nil
}

// rig is a running cluster: storage nodes on loopback listeners and a
// connected coordinator.
type rig struct {
	servers []*http.Server
	served  []chan error
	co      *cluster.Coordinator
	m       *cluster.Metrics
}

// startRig builds the storage nodes, connects the coordinator and runs
// the first fit: the cluster workload's set-up. wrap, when set, wraps
// each storage handler (the traced run times the RPCs).
func startRig(p *clusterPlan, wrap func(http.Handler) http.Handler) (*rig, error) {
	g := &rig{m: cluster.NewMetrics(metrics.NewRegistry())}
	var peers []string
	for _, sh := range p.shards {
		h := cluster.NewStorage(sh, nil).Handler()
		if wrap != nil {
			h = wrap(h)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			g.stop()
			return nil, err
		}
		hs := &http.Server{Handler: h}
		done := make(chan error, 1)
		go func() { done <- hs.Serve(ln) }()
		g.servers = append(g.servers, hs)
		g.served = append(g.served, done)
		peers = append(peers, "http://"+ln.Addr().String())
	}
	co, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Peers: peers, Metrics: g.m})
	if err != nil {
		g.stop()
		return nil, err
	}
	g.co = co
	ctx, cancel := context.WithTimeout(context.Background(), clusterFitLimit)
	defer cancel()
	if err := co.Connect(ctx); err != nil {
		g.stop()
		return nil, err
	}
	if _, _, err := g.fit(p.seeds[0], nil); err != nil {
		g.stop()
		return nil, err
	}
	return g, nil
}

func (g *rig) fit(seed uint64, opt func(*cluster.FitOptions)) (*stream.Monitor, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), clusterFitLimit)
	defer cancel()
	o := cluster.FitOptions{Phi: breastCancer().Phi, Seed: seed}
	if opt != nil {
		opt(&o)
	}
	return g.co.Fit(ctx, o)
}

// retries sums the coordinator's RPC retries over peers and RPCs.
func (g *rig) retries() int {
	n := 0.0
	for _, peer := range g.co.Peers() {
		for _, rpc := range append([]string{"info"}, clusterRPCs...) {
			n += g.m.Retries.Value(peer, rpc)
		}
	}
	return int(n)
}

// stop drains the coordinator's RPCs, closes the storage servers and
// waits for their serve loops.
func (g *rig) stop() {
	if g.co != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = g.co.Drain(ctx)
		cancel()
	}
	for i, hs := range g.servers {
		_ = hs.Close()
		if err := <-g.served[i]; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("  storage serve loop: %v\n", err)
		}
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// checkFit compares a distributed model with the single-node one.
func (p *clusterPlan) checkFit(cnt *ops, seed uint64, js []byte, err error) bool {
	switch {
	case err != nil:
		cnt.fail("cluster fit seed=%d: %v", seed, err)
	case !bytes.Equal(js, p.want[seed]):
		cnt.fail("cluster fit seed=%d: model differs from the single-node fit of the concatenated window", seed)
	default:
		cnt.ok()
		return true
	}
	return false
}

// runCluster measures distributed fits over loopback storage nodes.
func runCluster(o options) (report, error) {
	p, err := newClusterPlan(o.seed)
	if err != nil {
		return report{}, err
	}
	// The inputs stay live through the run; heap_live_mb is what the
	// program keeps beyond them.
	base := collect()
	var g *rig
	setup, err := timeSetup(clusterSetupReps, func(int) error {
		if g != nil {
			g.stop()
		}
		g, err = startRig(p, nil)
		return err
	})
	if err != nil {
		return report{}, err
	}
	defer g.stop()

	var cnt ops
	lat, busy := closedLoop(o.seconds, len(p.seeds), func(i int) (time.Duration, bool) {
		seed := p.seeds[i%len(p.seeds)]
		t := time.Now()
		_, js, err := g.fit(seed, nil)
		d := time.Since(t)
		return d, p.checkFit(&cnt, seed, js, err)
	})
	heap := collect() - base
	if r := g.retries(); r > 0 {
		for range r {
			cnt.fail("storage RPC retried")
		}
	}
	rows := len(lat) * p.window.N()

	var rep report
	fmt.Println("cluster: end-to-end")
	rep.put("setup_s", setup, "s", fmt.Sprintf("median of %d: storage nodes, connect, first fit", clusterSetupReps))
	rep.putLatencies(lat)
	rep.put("rows_per_s", float64(rows)/busy.Seconds(), "1/s",
		fmt.Sprintf("%d window rows fitted in %.3f s of fits", rows, busy.Seconds()))
	rep.put("heap_live_mb", heap, "MB", "live heap with the cluster running, after a forced GC, minus the inputs'")
	rep.Attempted, rep.Failed = cnt.attempted, cnt.failed
	return rep, nil
}

// traceCluster re-runs one cycle of distributed fits untraced, then
// traced: a span per fit, per storage RPC on the client side and per
// RPC on the storage side, plus the search span from the observer.
func traceCluster(o options, rec *recorder, rep *report, cnt *ops) error {
	p, err := newClusterPlan(o.seed)
	if err != nil {
		return err
	}
	g, err := startRig(p, func(h http.Handler) http.Handler { return timedHandler{next: h, rec: rec} })
	if err != nil {
		return err
	}
	defer g.stop()
	var plain []float64
	for _, seed := range p.seeds {
		t := time.Now()
		_, js, err := g.fit(seed, nil)
		plain = append(plain, ms(time.Since(t)))
		p.checkFit(cnt, seed, js, err)
	}

	timer := &rpcTimer{base: http.DefaultTransport, rec: rec}
	http.DefaultTransport = timer
	defer func() { http.DefaultTransport = timer.base }()
	type tracedFit struct {
		trace  string
		wall   time.Duration
		ft     *fitTrace
		search span
	}
	var fits []tracedFit
	var traced []float64
	for i := range clusterTracedOps {
		seed := p.seeds[i%len(p.seeds)]
		trace := fmt.Sprintf("cluster-%d", i)
		root, end := rec.begin(trace, 0, "cluster.Fit")
		timer.op.Store(&opSpan{trace: trace, id: root})
		ft := &fitTrace{}
		t := time.Now()
		_, js, err := g.fit(seed, func(o *cluster.FitOptions) { o.Observer = ft })
		wall := time.Since(t)
		timer.op.Store(nil)
		end()
		traced = append(traced, ms(wall))
		if !p.checkFit(cnt, seed, js, err) {
			continue
		}
		if ft.total == nil {
			return fmt.Errorf("cluster fit observer saw no restarts summary")
		}
		s := span{Trace: trace, Parent: root, Name: "core.search",
			Start: rec.at(ft.totalT.Add(-ft.total.Elapsed)), End: rec.at(ft.totalT)}
		s.ID = rec.add(s.Trace, s.Parent, s.Name, s.Start, s.End)
		fits = append(fits, tracedFit{trace: trace, wall: wall, ft: ft, search: s})
	}
	for r := g.retries(); r > 0; r-- {
		cnt.fail("storage RPC retried")
	}
	n := float64(len(fits))
	if n == 0 {
		return fmt.Errorf("no traced cluster fit succeeded")
	}

	byTrace := map[string][]span{}
	for _, s := range rec.snapshot() {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	rpcs := map[string]float64{}
	rpcMs := map[string][]float64{}
	var storageBusy, clientRPC, bytesMoved, evals, gens float64
	var selectMs, gatherMs []float64
	for _, f := range fits {
		var client, gather []span
		for _, s := range byTrace[f.trace] {
			switch {
			case strings.HasPrefix(s.Name, "rpc."):
				client = append(client, s)
				rpcMs[s.Name] = append(rpcMs[s.Name], ms(s.dur()))
				clientRPC += float64(s.dur())
				// RPCs made while the search ran are its count calls.
				if s.Start >= f.search.Start && s.End <= f.search.End {
					rec.reparent(s.ID, f.search.ID)
				}
				if s.Name == "rpc.rows" {
					gather = append(gather, s)
				}
			case strings.HasPrefix(s.Name, "storage."):
				rpcs[strings.TrimPrefix(s.Name, "storage.")]++
				storageBusy += float64(s.dur())
				bytesMoved += float64(s.Bytes)
			}
		}
		selectMs = append(selectMs, ms(f.wall-covered(client)))
		gatherMs = append(gatherMs, ms(covered(gather)))
		evals += float64(f.ft.total.Evaluations)
		gens += float64(f.ft.total.Generations)
	}

	fmt.Printf("cluster: per layer (%d fits traced)\n", len(fits))
	printLayers("cluster", rec.snapshot(), "cluster.Fit")
	for _, rpc := range clusterRPCs {
		rep.put("cluster.rpcs_per_fit."+rpc, rpcs[rpc]/n, "count", "")
	}
	for _, rpc := range clusterRPCs {
		rep.put("cluster.rpc_ms."+rpc, median(rpcMs["rpc."+rpc]), "ms", "client-observed p50")
	}
	rep.put("cluster.storage_busy_ms", storageBusy/1e6/n, "ms", "storage handler time per fit, all shards")
	rep.put("cluster.transport_ms", (clientRPC-storageBusy)/1e6/n, "ms", "client RPC time - storage time, per fit")
	rep.put("cluster.select_ms", median(selectMs), "ms", "fit wall time - time covered by RPCs")
	rep.put("cluster.bytes_per_fit", bytesMoved/n, "bytes", "request + response bodies")
	rep.put("cluster.gather_ms", median(gatherMs), "ms", "rows RPCs of a fit")
	rep.put("cluster.retries", float64(g.retries()), "count", "each also a failed op")
	rep.put("cluster.core.evaluations", evals/n, "count", "per fit")
	rep.put("cluster.core.generations", gens/n, "count", "per fit")
	rep.put("trace.overhead_ms.cluster", median(traced)-median(plain), "ms",
		fmt.Sprintf("traced %.3f ms - untraced %.3f ms fit median", median(traced), median(plain)))
	return nil
}

// covered is the wall time the spans cover together.
func covered(ss []span) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	lo, hi := ss[0].Start, ss[0].End
	for _, s := range ss {
		lo, hi = min(lo, s.Start), max(hi, s.End)
	}
	return span{Start: lo, End: hi}.dur() - selfTime(span{Start: lo, End: hi}, ss)
}
