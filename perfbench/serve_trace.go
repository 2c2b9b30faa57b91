package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"hido/internal/batchwire"
	"hido/internal/dataset"
	"hido/internal/discretize"
	"hido/internal/stream"
)

// reqTiming is one traced request with its in-process replay.
type reqTiming struct {
	trace         string
	ingest        bool
	rows          int
	client        time.Duration
	decode, layer time.Duration // in-process batchwire.Decode and scoring (or twin ingest)
	sketch        time.Duration // in-process Sketch.Add over the batch (ingest only)
}

// traceServe replays the serve traffic untraced, then traced: spans
// around each client request and each handler call, with every request
// body also passed in process to the layer functions.
func traceServe(o options, rec *recorder, rep *report, cnt *ops) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(serveProcs))
	p, err := newServePlan(o.seed)
	if err != nil {
		return err
	}
	pass := max(o.seconds/4, 2*time.Second)

	d, err := startHidod(p.window, nil)
	if err != nil {
		return err
	}
	if err := p.expectScores(d.monitor(scoreModel)); err != nil {
		d.stop()
		return err
	}
	plainScore, plainIngest := &caller{c: newClient()}, &caller{c: newClient()}
	traffic(d, p, serveWarmup, pass, plainScore, plainIngest)
	d.stop()
	plainScore.c.CloseIdleConnections()
	plainIngest.c.CloseIdleConnections()
	cnt.add(plainScore.cnt)
	cnt.add(plainIngest.cnt)

	d, err = startHidod(p.window, func(h http.Handler) http.Handler {
		return timedHandler{next: h, rec: rec, name: "server.handler"}
	})
	if err != nil {
		return err
	}
	defer d.stop()
	// The twin ingests the same bodies in process; it never refits on
	// its own so that it adds no background load (refits are timed once,
	// below, with RefitFromWindow).
	twin, err := fitServeModel(p.window)
	if err != nil {
		return err
	}
	if err := twin.EnableIngest(stream.IngestOptions{Window: ingestWindow, RefitEvery: math.MaxInt}); err != nil {
		return err
	}
	score, ingest := &caller{c: newClient()}, &caller{c: newClient()}
	defer score.c.CloseIdleConnections()
	defer ingest.c.CloseIdleConnections()
	var mu sync.Mutex
	var reqs []reqTiming
	hook := func(kind string, inproc func(b *batch, t *reqTiming)) func(int, time.Time, *batch) (http.Header, func(time.Duration)) {
		return func(i int, start time.Time, b *batch) (http.Header, func(time.Duration)) {
			trace := fmt.Sprintf("%s-%d", kind, i)
			id := rec.add(trace, 0, kind+".request", rec.at(start), 0)
			h := http.Header{hdrTrace: {trace}, hdrSpan: {strconv.Itoa(id)}}
			return h, func(dur time.Duration) {
				rec.setEnd(id, rec.at(start.Add(dur)))
				t := reqTiming{trace: trace, ingest: kind == "ingest", rows: b.rows, client: dur}
				inproc(b, &t)
				mu.Lock()
				reqs = append(reqs, t)
				mu.Unlock()
			}
		}
	}
	scoreMon := d.monitor(scoreModel)
	var scoreDS *dataset.Dataset
	var alerts []stream.Alert
	score.hook = hook("score", func(b *batch, t *reqTiming) {
		s := time.Now()
		ds, err := batchwire.Decode(scoreDS, b.body, scoreMon.D())
		t.decode = time.Since(s)
		if err != nil {
			score.cnt.fail("in-process decode: %v", err)
			return
		}
		scoreDS = ds
		s = time.Now()
		alerts, err = scoreMon.ScoreBatchBuf(context.Background(), ds, procs, alerts)
		t.layer = time.Since(s)
		if err != nil {
			score.cnt.fail("in-process score: %v", err)
		}
	})
	var ingestDS *dataset.Dataset
	var ingestAlerts []stream.Alert
	sketches := make([]*discretize.Sketch, p.window.D())
	for j := range sketches {
		sketches[j] = discretize.NewSketch()
	}
	ingest.hook = hook("ingest", func(b *batch, t *reqTiming) {
		s := time.Now()
		ds, err := batchwire.Decode(ingestDS, b.body, twin.D())
		t.decode = time.Since(s)
		if err != nil {
			ingest.cnt.fail("in-process decode: %v", err)
			return
		}
		ingestDS = ds
		s = time.Now()
		ingestAlerts, err = twin.IngestBatch(context.Background(), ds, procs, ingestAlerts)
		t.layer = time.Since(s)
		if err != nil {
			ingest.cnt.fail("in-process ingest: %v", err)
		}
		s = time.Now()
		for i := range ds.N() {
			for j, v := range ds.RowView(i) {
				sketches[j].Add(v)
			}
		}
		t.sketch = time.Since(s)
	})
	traffic(d, p, serveWarmup, pass, score, ingest)
	im := d.monitor(ingestModel)
	im.WaitIngest()
	st := im.IngestStats()
	cnt.add(score.cnt)
	cnt.add(ingest.cnt)
	if err := checkCounters(d, cnt, score, ingest); err != nil {
		return err
	}

	// Spans from the in-process replay sit inside the handler span they
	// stand for, cut to fit it: decode from its start, then scoring or
	// ingest. The handler's self time is what they leave uncovered.
	handlers := map[string]span{}
	for _, s := range rec.snapshot() {
		if s.Name == "server.handler" {
			handlers[s.Trace] = s
		}
	}
	var L struct {
		handler, decode, self, transport, ingestHandler, ingestLayer []float64
		scoreNs, scoreRows, sketchNs, values                         float64
	}
	for _, t := range reqs {
		h, ok := handlers[t.trace]
		if !ok {
			cnt.fail("request %s has no handler span", t.trace)
			continue
		}
		layer := "stream.ScoreBatchBuf"
		if t.ingest {
			layer = "stream.IngestBatch"
		}
		rec.add(t.trace, h.ID, "batchwire.Decode", h.Start, min(h.Start+t.decode, h.End))
		rec.add(t.trace, h.ID, layer, min(h.Start+t.decode, h.End), min(h.Start+t.decode+t.layer, h.End))
		us := func(d time.Duration) float64 { return float64(d) / 1e3 }
		if t.ingest {
			L.ingestHandler = append(L.ingestHandler, us(h.dur()))
			L.ingestLayer = append(L.ingestLayer, us(t.layer))
			L.sketchNs += float64(t.sketch)
			L.values += float64(t.rows * p.window.D())
			continue
		}
		L.handler = append(L.handler, us(h.dur()))
		L.decode = append(L.decode, us(t.decode))
		L.self = append(L.self, us(h.dur()-t.decode-t.layer))
		L.transport = append(L.transport, us(t.client-h.dur()))
		L.scoreNs += float64(t.layer)
		L.scoreRows += float64(t.rows)
	}
	refitMs, err := timeRefits(twin)
	if err != nil {
		return err
	}
	scoreAllocs, ingestAllocs, err := allocsPerRequest(p)
	if err != nil {
		return err
	}

	fmt.Printf("serve: per layer (%v traced after %v warm-up)\n", pass, serveWarmup)
	printLayers("serve score", rec.snapshot(), "score.request")
	printLayers("serve ingest", rec.snapshot(), "ingest.request")
	rep.put("server.handler_us.score", median(L.handler), "us", fmt.Sprintf("%d score requests", len(L.handler)))
	rep.put("batchwire.decode_us", median(L.decode), "us", "in-process replay of each score body")
	rep.put("stream.score_ns_per_row", L.scoreNs/L.scoreRows, "ns", fmt.Sprintf("ScoreBatchBuf over %.0f rows", L.scoreRows))
	rep.put("server.self_us.score", median(L.self), "us", "handler - decode - score, per request")
	rep.put("net.transport_us", median(L.transport), "us", "client - handler, per score request")
	rep.put("server.allocs_per_req.score", scoreAllocs, "count", "in-process ServeHTTP, pools warm")
	rep.put("server.allocs_per_req.ingest", ingestAllocs, "count", "in-process ServeHTTP, no refit due")
	rep.put("server.handler_us.ingest", median(L.ingestHandler), "us", fmt.Sprintf("%d ingest requests", len(L.ingestHandler)))
	rep.put("stream.ingest_us", median(L.ingestLayer), "us", "IngestBatch on an in-process twin")
	rep.put("discretize.sketch_ns_per_value", L.sketchNs/L.values, "ns", fmt.Sprintf("Sketch.Add over %.0f values", L.values))
	rep.put("stream.refit_ms", refitMs, "ms", "RefitFromWindow on a full window, median of 3")
	rep.put("stream.refits", float64(st.Refits), "count", fmt.Sprintf("background refits in the traced pass, %d failed", st.RefitErrs))
	rr := ratio{float64(st.Refits), float64(ingest.sent / ingestRefitEvery)}
	rep.put("stream.refit_ratio", rr.value(), "ratio", rr.note(fmt.Sprintf("refit triggers (one per %d ingested rows)", ingestRefitEvery)))
	rej := plainScore.rejct + plainIngest.rejct + score.rejct + ingest.rejct
	rep.put("server.rejected", float64(rej), "count", "429 and 5xx answers, each also a failed op")
	rep.put("trace.overhead_ms.serve", median(score.lat)-median(plainScore.lat), "ms",
		fmt.Sprintf("traced %.4f ms - untraced %.4f ms score p50", median(score.lat), median(plainScore.lat)))
	rep.put("trace.overhead_ms.ingest", median(ingest.lat)-median(plainIngest.lat), "ms",
		fmt.Sprintf("traced %.4f ms - untraced %.4f ms ingest p50", median(ingest.lat), median(plainIngest.lat)))
	return nil
}

// timeRefits times RefitFromWindow on the twin's full window.
func timeRefits(twin *stream.Monitor) (float64, error) {
	if st := twin.IngestStats(); st.WindowRows < ingestWindow-ingestWindow/ingestEpochs {
		return 0, fmt.Errorf("twin window holds only %d rows", st.WindowRows)
	}
	var ts []float64
	for range 3 {
		t := time.Now()
		if err := twin.RefitFromWindow(); err != nil {
			return 0, err
		}
		ts = append(ts, ms(time.Since(t)))
	}
	return median(ts), nil
}

// nullWriter is a ResponseWriter that keeps nothing but the headers.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(int)             {}

// replayBody serves the same bytes to each request that reuses it.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// allocsPerRequest counts heap allocations per request through the
// program's full handler, in process, on a fresh server: score requests
// after warm pools, and ingest requests while no refit is due.
func allocsPerRequest(p *servePlan) (score, ingest float64, err error) {
	d, err := startHidod(p.window, nil)
	if err != nil {
		return 0, 0, err
	}
	defer d.stop()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h := d.srv.Handler()
	count := func(path string, bs []*batch, warm int) (float64, error) {
		req, err := http.NewRequest(http.MethodPost, path, nil)
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", batchwire.ContentType)
		rb := &replayBody{}
		w := &nullWriter{h: http.Header{}}
		run := func(b *batch) {
			rb.Reset(b.body)
			req.Body, req.ContentLength = rb, int64(len(b.body))
			h.ServeHTTP(w, req)
		}
		for _, b := range bs[:warm] {
			run(b)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, b := range bs[warm:] {
			run(b)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(len(bs)-warm), nil
	}
	var bs []*batch
	for _, i := range p.scoreSeq[:512] {
		bs = append(bs, &p.score[i])
	}
	if score, err = count("/api/v1/score?model="+scoreModel, bs, 256); err != nil {
		return 0, 0, err
	}
	// 7 batches of 256 rows stay below the 2048-row refit cadence.
	bs = bs[:0]
	for i := range ingestRefitEvery/ingestRows - 1 {
		bs = append(bs, &p.ingest[i])
	}
	ingest, err = count("/api/v1/ingest?model="+ingestModel, bs, 1)
	return score, ingest, err
}
