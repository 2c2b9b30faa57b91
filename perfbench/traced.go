package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// spanDir is where a traced run writes its spans, inside the checkout.
const spanDir = ".bench_build"

// Headers that carry a span's identity from a benchmark-side client to
// the benchmark-side wrapper around the program's handler.
const (
	hdrTrace = "X-Bench-Trace"
	hdrSpan  = "X-Bench-Span"
)

// runTraced re-runs every workload with spans around the calls into
// each layer and reports the per-layer metrics. End-to-end numbers come
// only from untraced runs.
func runTraced(o options) (report, error) {
	rec := newRecorder()
	var rep report
	var cnt ops
	for _, w := range []struct {
		name string
		run  func(options, *recorder, *report, *ops) error
	}{{"fit", traceFit}, {"serve", traceServe}, {"cluster", traceCluster}} {
		if err := w.run(o, rec, &rep, &cnt); err != nil {
			return report{}, fmt.Errorf("traced %s: %w", w.name, err)
		}
	}
	name := fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed)
	if err := rec.write(spanDir, name); err != nil {
		return report{}, err
	}
	fmt.Printf("spans written to %s/%s\n", spanDir, name)
	rep.Attempted, rep.Failed = cnt.attempted, cnt.failed
	return rep, nil
}

// timedHandler records a span around each request the program's
// handler serves, linked to the client's span by the bench headers.
type timedHandler struct {
	next http.Handler
	rec  *recorder
	name string
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	trace := r.Header.Get(hdrTrace)
	if trace == "" { // warm-up and untraced requests
		h.next.ServeHTTP(w, r)
		return
	}
	start := h.rec.now()
	cw := &countingWriter{ResponseWriter: w}
	h.next.ServeHTTP(cw, r)
	end := h.rec.now()
	parent, _ := strconv.Atoi(r.Header.Get(hdrSpan))
	name := h.name
	if name == "" {
		name = "storage." + strings.TrimPrefix(r.URL.Path, "/rpc/v1/")
	}
	id := h.rec.add(trace, parent, name, start, end)
	h.rec.setBytes(id, max(r.ContentLength, 0)+cw.n)
}

// countingWriter counts the response bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// rpcTimer wraps the transport the cluster client uses: it records a
// span for each storage RPC from send until the answer's body is
// closed, as a child of the fit that is running.
type rpcTimer struct {
	base http.RoundTripper
	rec  *recorder
	op   atomic.Pointer[opSpan]
}

type opSpan struct {
	trace string
	id    int
}

func (t *rpcTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	op := t.op.Load()
	if op == nil {
		return t.base.RoundTrip(req)
	}
	name := "rpc." + strings.TrimPrefix(req.URL.Path, "/rpc/v1/")
	id, end := t.rec.begin(op.trace, op.id, name)
	req = req.Clone(req.Context())
	req.Header.Set(hdrTrace, op.trace)
	req.Header.Set(hdrSpan, strconv.Itoa(id))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		end()
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: end}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}
