package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hido/internal/stream"
)

func TestTailLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 40, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i*7919)%n + 1) // 1..n, shuffled
		}
		got, err := tailOf(xs)
		if err != nil {
			t.Fatal(err)
		}
		want := tail{value: float64(n - 10), percentile: 100 * float64(n-10) / float64(n), samples: n, beyond: 10}
		if got != want {
			t.Errorf("n=%d: tail %+v, want %+v", n, got, want)
		}
		beyond := 0
		for _, x := range xs {
			if x > got.value {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", n, beyond, tailBeyond)
		}
	}
	if _, err := tailOf(make([]float64, tailBeyond)); err == nil {
		t.Error("a tail over 10 samples should be refused")
	}
}

func TestTailNoteStatesPercentileAndCount(t *testing.T) {
	var rep report
	lat := make([]float64, 50)
	for i := range lat {
		lat[i] = float64(i)
	}
	out := captureStdout(t, func() {
		rep.putLatencies(lat)
	})
	if !strings.Contains(out, "p80.000 of 50 samples, 10 beyond") {
		t.Errorf("tail line does not state its percentile and sample count:\n%s", out)
	}
	if rep.Metrics["tail_ms"].Value != 39 || rep.Metrics["p50_ms"].Value != 24.5 {
		t.Errorf("metrics %+v", rep.Metrics)
	}
}

func TestRatioPrintsItsBase(t *testing.T) {
	r := ratio{25, 102913}
	if note := r.note("lookups"); note != "25 / 102913 lookups" {
		t.Errorf("note %q", note)
	}
	if (ratio{1, 0}).value() != 0 {
		t.Error("a ratio over nothing should read 0")
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	root := span{ID: 1, Start: 0, End: 100}
	kids := []span{{Start: 10, End: 40}, {Start: 30, End: 50}, {Start: 90, End: 120}}
	if got := selfTime(root, kids); got != 100-40-10 {
		t.Errorf("self time %v, want 50", got)
	}
	if got := covered(kids); got != 40+30 {
		t.Errorf("covered %v, want 70", got)
	}
}

// corrupting flips one byte of every second answer.
type corrupting struct {
	next http.Handler
	n    atomic.Int64
}

func (c *corrupting) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/api/v1/score") || c.n.Add(1)%2 == 1 {
		c.next.ServeHTTP(w, r)
		return
	}
	rec := &bufferWriter{h: http.Header{}}
	c.next.ServeHTTP(rec, r)
	body := rec.buf.Bytes()
	body[len(body)/2] ^= 1
	for k, v := range rec.h {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.code)
	_, _ = w.Write(body)
}

type bufferWriter struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func (w *bufferWriter) Header() http.Header         { return w.h }
func (w *bufferWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }
func (w *bufferWriter) WriteHeader(code int)        { w.code = code }

// scoreFor runs the score caller against d for a moment.
func scoreFor(d *hidod, p *servePlan) *caller {
	c := &caller{c: newClient(), url: d.url}
	defer c.c.CloseIdleConnections()
	now := time.Now()
	c.loop(phases{warm: now, end: now.Add(300 * time.Millisecond)},
		"/api/v1/score?model="+scoreModel, p.score, p.scoreSeq, checkScore)
	return c
}

func TestCorruptedScoreAnswerIsAFailedOp(t *testing.T) {
	p, err := newServePlan(3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := startHidod(p.window, func(h http.Handler) http.Handler { return &corrupting{next: h} })
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	if err := p.expectScores(d.monitor(scoreModel)); err != nil {
		t.Fatal(err)
	}
	c := scoreFor(d, p)
	if c.cnt.attempted < 4 || c.cnt.failed != c.cnt.attempted/2 {
		t.Errorf("%d of %d ops failed, want every second one", c.cnt.failed, c.cnt.attempted)
	}
}

func TestWrongModelIsAFailedOp(t *testing.T) {
	p, err := newServePlan(3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := startHidod(p.window, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	other, err := stream.NewMonitor(p.window, stream.Options{Phi: segmentation().Phi, Seed: fitSeedServe + 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.expectScores(other); err != nil {
		t.Fatal(err)
	}
	if c := scoreFor(d, p); c.cnt.failed == 0 {
		t.Errorf("none of %d ops against another model failed", c.cnt.attempted)
	}

	var cnt ops
	chk := checker{want: map[fitOp]modelCheck{}}
	op := fitOp{window: 0, seed: 1}
	chk.check(&cnt, op, modelCheck{digest: strings.Repeat("a", 64), flagged: 2})
	chk.check(&cnt, op, modelCheck{digest: strings.Repeat("b", 64), flagged: 2})
	chk.check(&cnt, op, modelCheck{digest: strings.Repeat("a", 64), flagged: 1})
	if cnt.attempted != 3 || cnt.failed != 2 {
		t.Errorf("fit checks: %d of %d failed, want 2 of 3", cnt.failed, cnt.attempted)
	}

	cp := &clusterPlan{want: map[uint64][]byte{7: []byte(`{"model":1}`)}}
	cnt = ops{}
	cp.checkFit(&cnt, 7, []byte(`{"model":2}`), nil)
	cp.checkFit(&cnt, 7, []byte(`{"model":1}`), nil)
	if cnt.attempted != 2 || cnt.failed != 1 {
		t.Errorf("cluster checks: %d of %d failed, want 1 of 2", cnt.failed, cnt.attempted)
	}
}

func TestWindowOracleMatchesIngest(t *testing.T) {
	p, err := newServePlan(5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := fitServeModel(p.window)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnableIngest(stream.IngestOptions{Window: ingestWindow, RefitEvery: math.MaxInt}); err != nil {
		t.Fatal(err)
	}
	check := ingestChecker()
	sent := 0
	for i := range 3 * ingestWindow / ingestRows {
		b := &p.ingest[i%len(p.ingest)]
		if _, err := m.IngestBatch(context.Background(), b.ds, 1, nil); err != nil {
			t.Fatal(err)
		}
		sent += b.rows
		got := m.IngestStats().WindowRows
		if got != windowAfter(sent) {
			t.Fatalf("after %d rows the window holds %d, oracle says %d", sent, got, windowAfter(sent))
		}
		body := fmt.Sprintf(`{"model":"ingest","records":%d,"flagged":0,"window_rows":%d,"refit_errors":0,"results":[]}`, b.rows, got)
		if err := check(b, []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	if err := check(&p.ingest[0], []byte(`{"records":255,"window_rows":0,"results":[]}`)); err == nil {
		t.Error("an answer with one record short passed the check")
	}
}

func TestClosedLoopEndsOnWholeCycles(t *testing.T) {
	const cycle = 7
	seen := map[int]int{}
	lat, _ := closedLoop(time.Millisecond, cycle, func(i int) (time.Duration, bool) {
		seen[i%cycle]++
		return time.Microsecond, true
	})
	if len(lat) < minOps || len(lat)%cycle != 0 {
		t.Errorf("%d ops timed, want at least %d in whole cycles of %d", len(lat), minOps, cycle)
	}
	for i := range cycle {
		if seen[i] != len(lat)/cycle {
			t.Errorf("op %d ran %d times in %d cycles", i, seen[i], len(lat)/cycle)
		}
	}
}

func TestRunWhoseEveryOpFailsEnds(t *testing.T) {
	var cnt ops
	attempts := 0
	done := make(chan []float64)
	go func() {
		lat, _ := closedLoop(time.Millisecond, 16, func(i int) (time.Duration, bool) {
			attempts++
			cnt.fail("op %d fails its check", i)
			return time.Millisecond, false
		})
		done <- lat
	}()
	var lat []float64
	select {
	case lat = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a run whose every op fails did not end")
	}
	if attempts != 1 || len(lat) != 0 || cnt.failed != 1 {
		t.Errorf("%d attempts, %d timed, %d failed; want the run to stop at the first failure", attempts, len(lat), cnt.failed)
	}
	var rep report
	captureStdout(t, func() {
		rep.putLatencies(lat)
		rep.put("rows_per_s", 0/time.Duration(0).Seconds(), "1/s", "")
	})
	rep.Attempted, rep.Failed = cnt.attempted, cnt.failed
	rep.Correct = rep.Failed == 0
	line, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("a failed run cannot report: %v", err)
	}
	if !strings.Contains(string(line), `"correct":false`) {
		t.Errorf("failed run reports %s", line)
	}
}

func TestReportsAreCheckedAgainstBenchmarkJSON(t *testing.T) {
	decl, err := readDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.EndToEnd) == 0 || len(decl.PerLayer) == 0 {
		t.Fatalf("BENCHMARK.json declares %d end-to-end and %d per-layer metrics", len(decl.EndToEnd), len(decl.PerLayer))
	}
	var rep report
	captureStdout(t, func() {
		for _, m := range decl.EndToEnd {
			rep.put(m.Name, 1, m.Unit, "")
		}
	})
	if err := checkDeclared(rep, decl.EndToEnd); err != nil {
		t.Errorf("a report of the declared metrics fails: %v", err)
	}
	first := decl.EndToEnd[0]
	rep.Metrics[first.Name] = metric{Value: 1, Unit: first.Unit + "x"}
	if checkDeclared(rep, decl.EndToEnd) == nil {
		t.Error("a metric in another unit passed")
	}
	delete(rep.Metrics, first.Name)
	if checkDeclared(rep, decl.EndToEnd) == nil {
		t.Error("a missing metric passed")
	}
	rep.Metrics[first.Name] = metric{Value: 1, Unit: first.Unit}
	rep.Metrics["undeclared"] = metric{Value: 1, Unit: "s"}
	if checkDeclared(rep, decl.EndToEnd) == nil {
		t.Error("an undeclared metric passed")
	}
}

func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	f()
	os.Stdout = old
	w.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(r)
	return buf.String()
}
