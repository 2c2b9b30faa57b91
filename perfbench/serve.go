package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"hido/internal/batchwire"
	"hido/internal/dataset"
	"hido/internal/server"
	"hido/internal/stream"
	"hido/internal/synth"
	"hido/internal/xrand"
)

// side picks which caller of the serve traffic a run reports: the
// scoring caller (workload serve) or the ingesting one (workload
// ingest). Both workloads run the same traffic.
type side int

const (
	sideScore side = iota
	sideIngest
)

// The serve traffic: caller 1 posts hib1 score batches, mostly 1-16
// rows with one in largeEvery of largeRows rows; caller 2 posts
// ingestRows-row batches of drifted records to the ingest model.
const (
	largeRows        = 1024
	largeEvery       = 10
	maxSmallRows     = 16
	smallBatches     = 256
	largeBatches     = 8
	ingestBatches    = 32
	ingestRows       = 256
	ingestWindow     = 4096
	ingestRefitEvery = 2048
	ingestEpochs     = 8 // stream.IngestOptions default
	scoreSeqLen      = 4096
	serveSetupReps   = 5
	serveWarmup      = 2 * time.Second
	scoreModel       = "score"
	ingestModel      = "ingest"
	fitSeedServe     = 1
)

// serveProcs is GOMAXPROCS for the serve traffic: the program's procs
// plus one for each in-process caller, so that generating load does not
// take processors from the server. The server's own fan-out stays at
// procs (Config.ScoreWorkers), what it uses in production here.
const serveProcs = procs + 2

// batch is one request body with what the server must answer.
type batch struct {
	rows int
	body []byte
	ds   *dataset.Dataset
	want []byte // the exact score response; nil for ingest batches
}

// servePlan is the seeded traffic of one run.
type servePlan struct {
	window   *dataset.Dataset
	score    []batch
	scoreSeq []int // indexes into score, replayed in order
	ingest   []batch
}

func segmentation() synth.Profile {
	p, err := synth.ProfileByName("Segmentation")
	if err != nil {
		panic(err) // the profile table is compiled in
	}
	return p
}

// newServePlan makes the window and request bodies from the seed:
// score rows are window rows with a little noise, ingest rows are
// window rows shifted by a third of a standard deviation (drift).
func newServePlan(seed uint64) (*servePlan, error) {
	window, err := segmentation().Generate(seed)
	if err != nil {
		return nil, err
	}
	r := xrand.New(seed ^ 0x5e4e)
	sd := columnSDs(window)
	rowsFrom := func(n int, noise, shift float64) *dataset.Dataset {
		ds := dataset.New(window.Names, n)
		row := make([]float64, window.D())
		for range n {
			src := window.RowView(r.Intn(window.N()))
			for j, v := range src {
				row[j] = v + sd[j]*(shift+noise*r.Norm())
			}
			ds.AppendRow(row, "")
		}
		return ds
	}
	p := &servePlan{window: window}
	for i := range smallBatches + largeBatches {
		n := 1 + r.Intn(maxSmallRows)
		if i >= smallBatches {
			n = largeRows
		}
		ds := rowsFrom(n, 0.1, 0)
		p.score = append(p.score, batch{rows: n, body: batchwire.Encode(ds), ds: ds})
	}
	for range scoreSeqLen {
		i := r.Intn(smallBatches)
		if r.Intn(largeEvery) == 0 {
			i = smallBatches + r.Intn(largeBatches)
		}
		p.scoreSeq = append(p.scoreSeq, i)
	}
	for range ingestBatches {
		ds := rowsFrom(ingestRows, 0.1, 0.33)
		p.ingest = append(p.ingest, batch{rows: ingestRows, body: batchwire.Encode(ds), ds: ds})
	}
	return p, nil
}

func columnSDs(ds *dataset.Dataset) []float64 {
	sd := make([]float64, ds.D())
	for j := range sd {
		var s, s2 float64
		col := ds.Column(j)
		for _, v := range col {
			s += v
			s2 += v * v
		}
		n := float64(len(col))
		sd[j] = math.Sqrt(max(s2/n-(s/n)*(s/n), 0))
	}
	return sd
}

// scoreResponse mirrors the body of POST /api/v1/score.
type scoreResponse struct {
	Model   string                `json:"model"`
	Records int                   `json:"records"`
	Flagged int                   `json:"flagged"`
	Results []stream.RecordResult `json:"results"`
}

// expectScores fills each score batch's exact expected response from
// in-process Monitor.ScoreBatch on the same rows of the fixed model.
func (p *servePlan) expectScores(m *stream.Monitor) error {
	for i := range p.score {
		b := &p.score[i]
		alerts := m.ScoreBatch(b.ds)
		flagged := 0
		for _, a := range alerts {
			if a.Flagged() {
				flagged++
			}
		}
		var buf bytes.Buffer
		err := json.NewEncoder(&buf).Encode(scoreResponse{
			Model: scoreModel, Records: len(alerts), Flagged: flagged,
			Results: m.Results(b.ds, alerts, false, true),
		})
		if err != nil {
			return err
		}
		b.want = buf.Bytes()
	}
	return nil
}

// hidod is one running server: the program's handler on a loopback
// listener, holding the fixed score model and the ingest model.
type hidod struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
}

func fitServeModel(window *dataset.Dataset) (*stream.Monitor, error) {
	return stream.NewMonitor(window, stream.Options{Phi: segmentation().Phi, Seed: fitSeedServe})
}

// startHidod builds the server, fits both models and waits until the
// listener answers: the serve workload's set-up. wrap, when set, wraps
// the handler (the traced run times it).
func startHidod(window *dataset.Dataset, wrap func(http.Handler) http.Handler) (*hidod, error) {
	srv := server.New(server.Config{IngestWindow: ingestWindow, IngestRefitEvery: ingestRefitEvery, ScoreWorkers: procs})
	for _, name := range []string{scoreModel, ingestModel} {
		m, err := fitServeModel(window)
		if err != nil {
			return nil, err
		}
		if err := srv.Registry().Set(name, server.Entry{Monitor: m, FittedAt: time.Now(), Source: "perfbench"}); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d := &hidod{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	resp, err := http.Get(d.url + "/readyz")
	if err != nil {
		d.stop()
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.stop()
		return nil, fmt.Errorf("hidod /readyz answered %d", resp.StatusCode)
	}
	return d, nil
}

func (d *hidod) monitor(name string) *stream.Monitor {
	e, _ := d.srv.Registry().Get(name)
	return e.Monitor
}

// stop closes the listener and connections, waits for the serve loop
// and for any background refit to end.
func (d *hidod) stop() {
	_ = d.hs.Close()
	if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("  hidod serve loop: %v\n", err)
	}
	for _, name := range []string{scoreModel, ingestModel} {
		if m := d.monitor(name); m != nil {
			m.WaitIngest()
		}
	}
}

// counter reads an unlabelled counter from the server's metrics text.
func (d *hidod) counter(name string) (float64, error) {
	var buf bytes.Buffer
	if err := d.srv.Metrics().WriteText(&buf); err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			var f float64
			_, err := fmt.Sscan(v, &f)
			return f, err
		}
	}
	return 0, fmt.Errorf("metric %s not exported", name)
}

// caller is one closed-loop client: it sends the next request only
// after the previous reply.
type caller struct {
	c     *http.Client
	url   string
	buf   bytes.Buffer
	cnt   ops
	lat   []float64 // ms, timed requests only
	rows  int       // rows in timed requests
	sent  int       // rows in every request, warm-up included
	rejct int       // 429 and 5xx answers
	// align, when set, lets the caller stop only once the rows it sent
	// are a multiple of align: the ingest caller stops with a full
	// window, so the heap it leaves does not depend on when time ran out.
	align int
	// hook, when set, is called before each timed request with its
	// index, start and batch; it returns headers to send and a function
	// called with the request's duration once the answer is read.
	hook func(i int, start time.Time, b *batch) (http.Header, func(time.Duration))
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// post sends one batch and reads the whole answer into c.buf.
func (c *caller) post(path string, b *batch, hdr http.Header) (int, error) {
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(b.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", batchwire.ContentType)
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// phases is the shared clock of a serve run: requests that start
// before warm end are warm-up, those that start before end are timed.
type phases struct {
	warm, end time.Time
}

// loop replays sequence seq (batch indexes into bs) until the run ends,
// checking every answer with check.
func (c *caller) loop(ph phases, path string, bs []batch, seq []int, check func(b *batch, body []byte) error) {
	for i := 0; ; i++ {
		start := time.Now()
		if !start.Before(ph.end) && (c.align == 0 || c.sent%c.align == 0) {
			return
		}
		timed := !start.Before(ph.warm) && start.Before(ph.end)
		b := &bs[seq[i%len(seq)]]
		var h http.Header
		var done func(time.Duration)
		if timed && c.hook != nil {
			h, done = c.hook(i, start, b)
		}
		code, err := c.post(path, b, h)
		d := time.Since(start)
		if done != nil {
			done(d)
		}
		c.sent += b.rows
		switch {
		case err != nil:
			c.cnt.fail("%s: %v", path, err)
			continue
		case code != http.StatusOK:
			if code == http.StatusTooManyRequests || code >= 500 {
				c.rejct++
			}
			c.cnt.fail("%s answered %d: %.200s", path, code, c.buf.String())
			continue
		}
		if err := check(b, c.buf.Bytes()); err != nil {
			c.cnt.fail("%s: %v", path, err)
			continue
		}
		c.cnt.ok()
		if timed {
			c.lat = append(c.lat, ms(d))
			c.rows += b.rows
		}
	}
}

func checkScore(b *batch, body []byte) error {
	if !bytes.Equal(body, b.want) {
		return fmt.Errorf("score response differs from in-process ScoreBatch (%d rows): got %.120q want %.120q", b.rows, body, b.want)
	}
	return nil
}

// ingestHead is the part of an ingest answer the checks read.
type ingestHead struct {
	Records    int    `json:"records"`
	WindowRows int    `json:"window_rows"`
	RefitErrs  uint64 `json:"refit_errors"`
}

// readIngestHead decodes the answer's counters, stopping before the
// per-record results.
func readIngestHead(body []byte) (ingestHead, error) {
	var h ingestHead
	dec := json.NewDecoder(bytes.NewReader(body))
	if _, err := dec.Token(); err != nil {
		return h, err
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return h, err
		}
		var dst any
		switch tok {
		case "records":
			dst = &h.Records
		case "window_rows":
			dst = &h.WindowRows
		case "refit_errors":
			dst = &h.RefitErrs
		case "results":
			return h, nil
		default:
			var skip json.RawMessage
			dst = &skip
		}
		if err := dec.Decode(dst); err != nil {
			return h, err
		}
	}
	return h, fmt.Errorf("ingest answer has no results")
}

// windowAfter is the window size after sent rows arrived in whole
// epochs: once over the limit, whole epochs expire oldest first.
func windowAfter(sent int) int {
	epoch := (ingestWindow + ingestEpochs - 1) / ingestEpochs
	if sent <= ingestWindow {
		return sent
	}
	return sent - epoch*((sent-ingestWindow+epoch-1)/epoch)
}

// ingestChecker checks each ingest answer against the rows sent so far.
func ingestChecker() func(b *batch, body []byte) error {
	sent := 0
	return func(b *batch, body []byte) error {
		sent += b.rows
		h, err := readIngestHead(body)
		switch {
		case err != nil:
			return fmt.Errorf("decoding ingest answer: %v", err)
		case h.Records != b.rows:
			return fmt.Errorf("ingest answered %d records for %d rows", h.Records, b.rows)
		case h.WindowRows != windowAfter(sent):
			return fmt.Errorf("window holds %d rows after %d sent, want %d", h.WindowRows, sent, windowAfter(sent))
		case h.RefitErrs != 0:
			return fmt.Errorf("%d background refits failed", h.RefitErrs)
		}
		return nil
	}
}

// traffic runs both callers against d: warm-up, then the timed phase.
func traffic(d *hidod, p *servePlan, warmup, timed time.Duration, score, ingest *caller) {
	now := time.Now()
	ph := phases{warm: now.Add(warmup), end: now.Add(warmup + timed)}
	ingestSeq := make([]int, len(p.ingest))
	for i := range ingestSeq {
		ingestSeq[i] = i
	}
	score.url, ingest.url = d.url, d.url
	ingest.align = ingestWindow / ingestEpochs
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		score.loop(ph, "/api/v1/score?model="+scoreModel, p.score, p.scoreSeq, checkScore)
	}()
	go func() {
		defer wg.Done()
		ingest.loop(ph, "/api/v1/ingest?model="+ingestModel, p.ingest, ingestSeq, ingestChecker())
	}()
	wg.Wait()
}

// checkCounters compares the server's record counters with what the
// callers sent, and the ingest model's refit outcomes.
func checkCounters(d *hidod, cnt *ops, score, ingest *caller) error {
	got, err := d.counter("hidod_ingest_records_total")
	if err != nil {
		return err
	}
	if int(got) != ingest.sent {
		cnt.fail("hidod_ingest_records_total = %v, callers sent %d ingest rows", got, ingest.sent)
	} else {
		cnt.ok()
	}
	got, err = d.counter("hidod_records_scored_total")
	if err != nil {
		return err
	}
	if int(got) != score.sent+ingest.sent {
		cnt.fail("hidod_records_scored_total = %v, callers sent %d rows", got, score.sent+ingest.sent)
	} else {
		cnt.ok()
	}
	if st := d.monitor(ingestModel).IngestStats(); st.RefitErrs != 0 || st.Refits == 0 {
		cnt.fail("ingest model: %d refits, %d failed", st.Refits, st.RefitErrs)
	} else {
		cnt.ok()
	}
	return nil
}

// runServe measures the serve traffic and reports one caller's side.
func runServe(o options, s side) (report, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(serveProcs))
	fmt.Printf("  serve traffic runs at GOMAXPROCS=%d, server fan-out %d\n", serveProcs, procs)
	p, err := newServePlan(o.seed)
	if err != nil {
		return report{}, err
	}
	// The expected answers come from a fit of its own, the same fit the
	// server makes, so that they are inputs like the request bodies. The
	// inputs stay live through the run; heap_live_mb is what the
	// program keeps beyond them.
	m, err := fitServeModel(p.window)
	if err != nil {
		return report{}, err
	}
	if err := p.expectScores(m); err != nil {
		return report{}, err
	}
	m = nil
	base := collect()
	var d *hidod
	setup, err := timeSetup(serveSetupReps, func(rep int) error {
		if d != nil {
			d.stop()
		}
		d, err = startHidod(p.window, nil)
		return err
	})
	if err != nil {
		return report{}, err
	}
	defer d.stop()
	score, ingest := &caller{c: newClient()}, &caller{c: newClient()}
	defer score.c.CloseIdleConnections()
	defer ingest.c.CloseIdleConnections()
	traffic(d, p, serveWarmup, o.seconds, score, ingest)
	d.monitor(ingestModel).WaitIngest()

	var cnt ops
	cnt.add(score.cnt)
	cnt.add(ingest.cnt)
	if err := checkCounters(d, &cnt, score, ingest); err != nil {
		return report{}, err
	}
	st := d.monitor(ingestModel).IngestStats()
	fmt.Printf("  score caller: %d requests, %d rows timed; ingest caller: %d requests, %d rows timed; %d refits\n",
		len(score.lat), score.rows, len(ingest.lat), ingest.rows, st.Refits)

	var rep report
	c, what := score, "scored"
	if s == sideIngest {
		c, what = ingest, "ingested"
	}
	fmt.Printf("%s: end-to-end\n", o.workload)
	rep.put("setup_s", setup, "s", fmt.Sprintf("median of %d: server, both fits, listener ready", serveSetupReps))
	rep.putLatencies(c.lat)
	rep.put("rows_per_s", float64(c.rows)/o.seconds.Seconds(), "1/s",
		fmt.Sprintf("%d rows %s in %v", c.rows, what, o.seconds))
	// The callers' records grow with the number of requests; drop them
	// so that the heap is the server's.
	score.lat, ingest.lat = nil, nil
	score.buf, ingest.buf = bytes.Buffer{}, bytes.Buffer{}
	rep.put("heap_live_mb", collect()-base, "MB", "live heap with the server running, after a forced GC, minus the inputs'")
	runtime.KeepAlive(p)
	rep.Attempted, rep.Failed = cnt.attempted, cnt.failed
	return rep, nil
}
