package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// prediction is what a change to one layer should do, before it is
// measured: moves names the end-to-end metrics (workload/metric) it
// should move, and not the ones it should leave alone. Later
// performance changes cite these.
type prediction struct {
	moves, not string
}

// predictions maps each per-layer metric of BENCHMARK.json to its
// prediction.
var predictions = map[string]prediction{
	// fit: stream.NewMonitor with the observer, plus standalone calls.
	"discretize.fit_ms":         {"fit/p50_ms", "serve/p50_ms"},
	"grid.build_ms":             {"fit/p50_ms", "serve/*"},
	"core.search_ms":            {"fit/p50_ms, fit/tail_ms", "serve/p50_ms"},
	"stream.fit_self_ms":        {"fit/p50_ms", "serve/*"},
	"core.evaluations":          {"fit/p50_ms (repeats exactly per seed)", "serve/*"},
	"core.generations":          {"fit/p50_ms (repeats exactly per seed)", "serve/*"},
	"grid.cache_hit_ratio":      {"fit/p50_ms", "serve/*"},
	"grid.count_ns":             {"fit/p50_ms through core.search_ms", "serve/*; barely cluster/p50_ms"},
	"bitset.ns_per_word":        {"fit/p50_ms through core.search_ms", "serve/*; barely cluster/p50_ms"},
	"core.count_share":          {"fit/p50_ms: the share a count-kernel gain can save", "serve/*"},
	"runtime.allocs_per_fit":    {"fit/p50_ms, fit/tail_ms", "serve/*"},
	"runtime.alloc_mb_per_fit":  {"fit/p50_ms, fit/tail_ms", "serve/*"},
	"runtime.gc_cycles_per_fit": {"fit/p50_ms, fit/tail_ms", "serve/*"},
	"trace.overhead_ms.fit":     {"none: the cost of tracing a fit", ""},
	// serve and ingest: the traced replay of the serve traffic.
	"server.handler_us.score":        {"serve/p50_ms", "fit/*"},
	"batchwire.decode_us":            {"serve/p50_ms", "fit/*"},
	"stream.score_ns_per_row":        {"serve/rows_per_s, serve/tail_ms", "fit/*"},
	"server.self_us.score":           {"serve/p50_ms (middleware, clock reads, encode)", "fit/*"},
	"net.transport_us":               {"serve/p50_ms", "fit/*"},
	"server.allocs_per_req.score":    {"serve/p50_ms", "fit/*"},
	"server.allocs_per_req.ingest":   {"ingest/p50_ms", "fit/*"},
	"server.handler_us.ingest":       {"ingest/p50_ms", "fit/*"},
	"stream.ingest_us":               {"ingest/p50_ms", "fit/*"},
	"discretize.sketch_ns_per_value": {"ingest/p50_ms", "fit/*"},
	"stream.refit_ms":                {"ingest/rows_per_s, serve/tail_ms", "fit/*"},
	"stream.refits":                  {"ingest/rows_per_s, serve/tail_ms", "fit/*"},
	"stream.refit_ratio":             {"ingest/rows_per_s, serve/tail_ms", "fit/*"},
	"server.rejected":                {"failed ops of serve and ingest", "fit/*"},
	"trace.overhead_ms.serve":        {"none: the cost of tracing a score request", ""},
	"trace.overhead_ms.ingest":       {"none: the cost of tracing an ingest request", ""},
	// cluster: storage handlers and the client transport wrapped.
	"cluster.rpcs_per_fit.rows":  {"cluster/p50_ms (repeats exactly per seed)", "fit/*"},
	"cluster.rpcs_per_fit.grid":  {"cluster/p50_ms (repeats exactly per seed)", "fit/*"},
	"cluster.rpcs_per_fit.count": {"cluster/p50_ms (repeats exactly per seed)", "fit/*"},
	"cluster.rpcs_per_fit.cover": {"cluster/p50_ms (repeats exactly per seed)", "fit/*"},
	"cluster.rpc_ms.rows":        {"cluster/p50_ms", "fit/*"},
	"cluster.rpc_ms.grid":        {"cluster/p50_ms", "fit/*"},
	"cluster.rpc_ms.count":       {"cluster/p50_ms", "fit/*"},
	"cluster.rpc_ms.cover":       {"cluster/p50_ms", "fit/*"},
	"cluster.storage_busy_ms":    {"cluster/p50_ms", "fit/*"},
	"cluster.transport_ms":       {"cluster/p50_ms", "fit/*"},
	"cluster.select_ms":          {"cluster/p50_ms", "fit/*"},
	"cluster.bytes_per_fit":      {"cluster/p50_ms", "fit/*"},
	"cluster.gather_ms":          {"cluster/p50_ms, cluster/setup_s", "fit/*"},
	"cluster.retries":            {"failed ops of cluster", "fit/*"},
	"cluster.core.evaluations":   {"cluster/p50_ms (repeats exactly per seed)", "fit/*"},
	"cluster.core.generations":   {"cluster/p50_ms (repeats exactly per seed)", "fit/*"},
	"trace.overhead_ms.cluster":  {"none: the cost of tracing a distributed fit", ""},
}

// declared is the part of BENCHMARK.json the benchmark checks its
// reports against.
type declared struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// readDeclared reads the metrics BENCHMARK.json declares.
func readDeclared(path string) (declared, error) {
	var d declared
	raw, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// checkDeclared fails when a run reports other metrics than declared,
// or with another unit.
func checkDeclared(rep report, want []declaredMetric) error {
	var missing, extra []string
	units := map[string]string{}
	for _, m := range want {
		units[m.Name] = m.Unit
		got, ok := rep.Metrics[m.Name]
		switch {
		case !ok:
			missing = append(missing, m.Name)
		case got.Unit != m.Unit:
			return fmt.Errorf("metric %s reported in %s, declared in %s", m.Name, got.Unit, m.Unit)
		}
	}
	for name := range rep.Metrics {
		if _, ok := units[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("reported metrics differ from the declared ones: missing %v, undeclared %v", missing, extra)
	}
	return nil
}

// printPredictions prints each per-layer value next to what it should
// move.
func printPredictions(rep report, perLayer []declaredMetric) {
	fmt.Println("per-layer metrics and the end-to-end metrics they should move:")
	for _, m := range perLayer {
		p, ok := predictions[m.Name]
		if !ok {
			p.moves = "no prediction recorded"
		}
		if p.not != "" {
			p.not = "; not: " + p.not
		}
		fmt.Printf("  %-32s %12.6g %-5s -> %s%s\n", m.Name, rep.Metrics[m.Name].Value, m.Unit, p.moves, p.not)
	}
}
