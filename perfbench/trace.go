package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share a trace
// ID; Parent is 0 for the op's root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Trace  string        `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Bytes  int64         `json:"bytes,omitempty"` // request + response bodies of an RPC
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.t0) }

// at converts a wall-clock instant to recorder time.
func (r *recorder) at(t time.Time) time.Duration { return t.Sub(r.t0) }

// add records a finished span and returns its ID.
func (r *recorder) add(trace string, parent int, name string, start, end time.Duration) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
	return id
}

// begin opens a span; the returned function closes it.
func (r *recorder) begin(trace string, parent int, name string) (id int, end func()) {
	id = r.add(trace, parent, name, r.now(), 0)
	return id, func() { r.setEnd(id, r.now()) }
}

// setEnd closes span id at t.
func (r *recorder) setEnd(id int, t time.Duration) {
	r.mu.Lock()
	r.spans[id-1].End = t
	r.mu.Unlock()
}

// setBytes records how many bytes span id moved.
func (r *recorder) setBytes(id int, n int64) {
	r.mu.Lock()
	r.spans[id-1].Bytes = n
	r.mu.Unlock()
}

// reparent makes span id a child of parent.
func (r *recorder) reparent(id, parent int) {
	r.mu.Lock()
	r.spans[id-1].Parent = parent
	r.mu.Unlock()
}

// snapshot returns a copy of every span recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// write stores every span as JSON in dir, which is created if needed.
func (r *recorder) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// selfTime is a span's duration minus the part of it that its children
// cover (overlapping children count once).
func selfTime(s span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	var covered, reach time.Duration
	reach = s.Start
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		covered += v.b - max(v.a, reach)
		reach = v.b
	}
	return s.dur() - covered
}

// layerTimes sums self time by span name over every trace whose root
// is named root, and returns it per op together with the mean root
// duration. Spans of one layer may run in parallel (restarts, shards),
// so the self times can add up to more than the op's wall time.
func layerTimes(spans []span, root string) (perOp map[string]time.Duration, wall time.Duration, n int) {
	children := map[int][]span{}
	byTrace := map[string][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	perOp = map[string]time.Duration{}
	for _, ss := range byTrace {
		var r *span
		for i := range ss {
			if ss[i].Parent == 0 && ss[i].Name == root {
				r = &ss[i]
			}
		}
		if r == nil {
			continue
		}
		n++
		wall += r.dur()
		for _, s := range ss {
			perOp[s.Name] += selfTime(s, children[s.ID])
		}
	}
	if n == 0 {
		return perOp, 0, 0
	}
	for k := range perOp {
		perOp[k] /= time.Duration(n)
	}
	return perOp, wall / time.Duration(n), n
}

// printLayers prints the self-time breakdown of a workload's traced
// ops: the check that the layers account for each op.
func printLayers(workload string, spans []span, root string) {
	perOp, wall, n := layerTimes(spans, root)
	if n == 0 {
		fmt.Printf("  %s: no traced ops\n", workload)
		return
	}
	var sum time.Duration
	fmt.Printf("  %s self time per traced op (%d ops, wall %.3f ms):\n", workload, n, ms(wall))
	for _, k := range sortedKeys(perOp) {
		sum += perOp[k]
		fmt.Printf("    %-28s %10.3f ms  %5.1f%%\n", k, ms(perOp[k]), 100*float64(perOp[k])/float64(wall))
	}
	fmt.Printf("    %-28s %10.3f ms  %5.1f%% of wall (above 100%% where layers ran in parallel)\n",
		"sum", ms(sum), 100*float64(sum)/float64(wall))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
