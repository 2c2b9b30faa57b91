package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hido/internal/obs"
	"hido/internal/server"
	"hido/internal/stream"
)

// TestTraceProtoRoundTrip drives the trace messages through encode →
// decode and requires them back unchanged.
func TestTraceProtoRoundTrip(t *testing.T) {
	req := &traceReq{TraceID: "t-cafe"}
	typ, payload, err := decodeFrame(req.encode())
	if err != nil || typ != msgTraceReq {
		t.Fatalf("traceReq frame: type %d err %v", typ, err)
	}
	var gotReq traceReq
	if err := gotReq.decode(payload); err != nil || gotReq.TraceID != "t-cafe" {
		t.Fatalf("traceReq: got %+v err %v", gotReq, err)
	}

	// Starts built via time.Unix: the wire carries UTC unix nanos, so
	// monotonic-clock-free times round-trip exactly.
	resp := &traceResp{Spans: []obs.SpanData{
		{TraceID: "t-1", SpanID: "s-1", Name: "storage:score", Node: "storage :9001",
			Start: time.Unix(1700000000, 12345).UTC(), DurMS: 1.5,
			Attrs: obs.SpanAttrs{{Key: "code", Value: "200"}, {Key: "rows", Value: "80"}}},
		{TraceID: "t-1", SpanID: "s-2", ParentID: "s-1", Name: "storage:count",
			Start: time.Unix(1700000001, 0).UTC(), DurMS: math.Inf(1)},
	}}
	typ, payload, err = decodeFrame(resp.encode())
	if err != nil || typ != msgTraceResp {
		t.Fatalf("traceResp frame: type %d err %v", typ, err)
	}
	var gotResp traceResp
	if err := gotResp.decode(payload); err != nil {
		t.Fatalf("traceResp decode: %v", err)
	}
	if !reflect.DeepEqual(resp.Spans, gotResp.Spans) {
		t.Errorf("traceResp: got %+v want %+v", gotResp.Spans, resp.Spans)
	}
}

// spanTreeJSON mirrors the debug endpoint's tree nodes.
type spanTreeJSON struct {
	Trace    string         `json:"trace"`
	Span     string         `json:"span"`
	Parent   string         `json:"parent"`
	Name     string         `json:"name"`
	Node     string         `json:"node"`
	Children []spanTreeJSON `json:"children"`
}

// flattenTree lists every node in the forest.
func flattenTree(nodes []spanTreeJSON) []spanTreeJSON {
	var out []spanTreeJSON
	for _, n := range nodes {
		out = append(out, n)
		out = append(out, flattenTree(n.Children)...)
	}
	return out
}

// TestClusterTraceEndToEnd is the tentpole acceptance test: one score
// request against a traced 3-shard cluster yields, via a single GET
// on the select node's debug endpoint, a span tree under one trace ID
// holding the root, the serving phases, a per-peer RPC span per
// shard, and the storage-side spans each shard recorded. After a
// shard dies, the next trace shows the local failover span.
func TestClusterTraceEndToEnd(t *testing.T) {
	full := testData(t, 240)
	mon, err := stream.NewMonitor(full, stream.Options{Phi: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	shards := splitAt(full, []int{70, 151})
	var peers []string
	var storageSrvs []*httptest.Server
	var storageRecs []*obs.SpanRecorder
	for i, sh := range shards {
		rec := obs.NewSpanRecorder(obs.SpanRecorderConfig{Node: "storage-" + string(rune('a'+i))})
		st := NewStorage(sh, nil)
		st.SetSpans(rec)
		srv := httptest.NewServer(st.Handler())
		t.Cleanup(srv.Close)
		storageSrvs = append(storageSrvs, srv)
		storageRecs = append(storageRecs, rec)
		peers = append(peers, srv.URL)
	}
	co, err := NewCoordinator(CoordinatorConfig{
		Peers:  peers,
		Quorum: 1,
		Client: ClientConfig{Timeout: 10 * time.Second, Retries: -1, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}

	selRec := obs.NewSpanRecorder(obs.SpanRecorderConfig{Node: "select"})
	sSel := server.New(server.Config{Spans: selRec})
	sSel.SetBatchScorer(co)
	sSel.SetTopNer(co)
	sSel.SetTraceFetcher(co)
	installModel(t, sSel, mon)
	sel := httptest.NewServer(sSel.Handler())
	defer sel.Close()

	scoreOnce := func() string {
		t.Helper()
		resp, err := http.Post(sel.URL+"/api/v1/score?all=1", "application/x-ndjson",
			strings.NewReader(scoreBody(t, full)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("score: %d", resp.StatusCode)
		}
		traceID := resp.Header.Get("X-Trace-Id")
		if traceID == "" {
			t.Fatal("score response carries no X-Trace-Id")
		}
		return traceID
	}

	// fetchTree pulls the assembled cross-node tree, polling briefly:
	// the root span lands in the ring in the middleware's deferred
	// cleanup, which can trail the response by a scheduler beat.
	fetchTree := func(traceID string) []spanTreeJSON {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			code, body := get(t, sel.URL+"/api/v1/debug/traces/"+traceID)
			if code == http.StatusOK {
				var tr struct {
					Trace string         `json:"trace"`
					Spans int            `json:"spans"`
					Tree  []spanTreeJSON `json:"tree"`
				}
				if err := json.Unmarshal([]byte(body), &tr); err != nil {
					t.Fatalf("trace response not JSON: %v in %q", err, body)
				}
				flat := flattenTree(tr.Tree)
				rooted := false
				for _, n := range flat {
					if n.Parent == "" && n.Name == "/api/v1/score" {
						rooted = true
					}
				}
				if rooted {
					return tr.Tree
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("trace %s never became complete (last: %d)", traceID, code)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	traceID := scoreOnce()
	flat := flattenTree(fetchTree(traceID))

	names := map[string]int{}
	for _, n := range flat {
		if n.Trace != traceID {
			t.Fatalf("span %s carries trace %s, want %s", n.Span, n.Trace, traceID)
		}
		names[n.Name]++
	}
	for _, want := range []string{"/api/v1/score", "decode", "score", "encode"} {
		if names[want] == 0 {
			t.Errorf("trace lacks a %q span (have %v)", want, names)
		}
	}
	// One score RPC per shard, each continued on its shard: the
	// storage-side span rode back through the trace RPC.
	if names["rpc:score"] < len(shards) {
		t.Errorf("trace has %d rpc:score spans, want >= %d (have %v)", names["rpc:score"], len(shards), names)
	}
	if names["storage:score"] < len(shards) {
		t.Errorf("trace has %d storage:score spans, want >= %d (have %v)", names["storage:score"], len(shards), names)
	}
	// Storage spans must say which node ran them, and each shard must
	// actually hold its own spans locally.
	for i, rec := range storageRecs {
		if len(rec.Trace(traceID)) == 0 {
			t.Errorf("shard %d retained no spans for trace %s", i, traceID)
		}
	}
	for _, n := range flat {
		if strings.HasPrefix(n.Name, "storage:") && !strings.HasPrefix(n.Node, "storage-") {
			t.Errorf("storage span %q attributed to node %q", n.Name, n.Node)
		}
	}
	// Parentage: storage:score spans hang under rpc:score spans — the
	// tree is connected across the process boundary.
	var checkParent func(nodes []spanTreeJSON, parent string)
	checkParent = func(nodes []spanTreeJSON, parent string) {
		for _, n := range nodes {
			if n.Name == "storage:score" && parent != "rpc:score" {
				t.Errorf("storage:score parented under %q, want rpc:score", parent)
			}
			checkParent(n.Children, n.Name)
		}
	}
	checkParent(fetchTree(traceID), "")

	// Kill a shard: scoring fails over to a local chunk, and the trace
	// shows it.
	storageSrvs[1].Close()
	failTrace := scoreOnce()
	flat = flattenTree(fetchTree(failTrace))
	found := false
	for _, n := range flat {
		if n.Name == "failover:score" {
			found = true
			if n.Node != "select" {
				t.Errorf("failover span attributed to %q, want select", n.Node)
			}
		}
	}
	if !found {
		t.Errorf("trace after shard death lacks a failover:score span")
	}

	// The listing endpoint knows both traces.
	code, body := get(t, sel.URL+"/api/v1/debug/traces")
	if code != http.StatusOK {
		t.Fatalf("debug/traces: %d %s", code, body)
	}
	var listing struct {
		Enabled bool `json:"enabled"`
		Traces  []struct {
			TraceID string `json:"trace"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatalf("traces listing not JSON: %v", err)
	}
	if !listing.Enabled {
		t.Error("traces listing says tracing disabled")
	}
	got := map[string]bool{}
	for _, tr := range listing.Traces {
		got[tr.TraceID] = true
	}
	if !got[traceID] || !got[failTrace] {
		t.Errorf("traces listing lacks %s or %s: %+v", traceID, failTrace, listing.Traces)
	}
}

// TestClientRetrySpans requires every attempt — including retries — to
// appear in the trace as its own RPC span with an attempt counter.
func TestClientRetrySpans(t *testing.T) {
	ds := testData(t, 40)
	st := NewStorage(ds, nil)
	real := st.Handler()
	var calls atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	rec := obs.NewSpanRecorder(obs.SpanRecorderConfig{Node: "select"})
	root := rec.StartRoot("test", "t-retry")
	ctx := obs.ContextWithSpan(context.Background(), root)

	client := NewClient(ClientConfig{Timeout: 5 * time.Second, Retries: 1, Backoff: time.Millisecond})
	if _, err := client.Call(ctx, flaky.URL, "info", emptyFrame(msgInfoReq), msgInfoResp); err != nil {
		t.Fatal(err)
	}
	root.End()

	spans := rec.Trace("t-retry")
	attempts := map[string]bool{}
	erred := 0
	for _, sd := range spans {
		if sd.Name != "rpc:info" {
			continue
		}
		for _, a := range sd.Attrs {
			if a.Key == "attempt" {
				attempts[a.Value] = true
			}
			if a.Key == "error" {
				erred++
			}
		}
		if sd.ParentID == "" {
			t.Error("rpc span has no parent")
		}
	}
	if !attempts["1"] || !attempts["2"] {
		t.Errorf("retry attempts missing from trace: %v", spans)
	}
	if erred != 1 {
		t.Errorf("%d rpc spans carry an error attr, want exactly the failed first attempt", erred)
	}
}

// TestUntracedRPCRecordsNoSpans posts a bare frame with no trace
// headers — a caller with tracing off — to a traced storage node: it
// is served, and nothing lands in the ring.
func TestUntracedRPCRecordsNoSpans(t *testing.T) {
	rec := obs.NewSpanRecorder(obs.SpanRecorderConfig{Node: "storage"})
	st := NewStorage(testData(t, 40), nil)
	st.SetSpans(rec)
	srv := httptest.NewServer(st.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/rpc/v1/info", "application/octet-stream",
		bytes.NewReader(emptyFrame(msgInfoReq)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("untraced RPC: %d", resp.StatusCode)
	}
	if n := rec.TotalSpans(); n != 0 {
		t.Errorf("untraced RPC recorded %d spans, want 0", n)
	}
}

// TestTracedBadRequestPostedOnce sends a traced RPC the shard rejects
// with 400: the client posts it exactly once, and the shard's span
// continues the caller's trace under the attempt's span.
func TestTracedBadRequestPostedOnce(t *testing.T) {
	storeRec := obs.NewSpanRecorder(obs.SpanRecorderConfig{Node: "storage"})
	st := NewStorage(testData(t, 40), nil)
	st.SetSpans(storeRec)
	real := st.Handler()
	var posts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		real.ServeHTTP(w, r)
	}))
	defer srv.Close()

	rec := obs.NewSpanRecorder(obs.SpanRecorderConfig{Node: "select"})
	root := rec.StartRoot("test", "t-bad")
	ctx := obs.ContextWithSpan(context.Background(), root)
	client := NewClient(ClientConfig{Timeout: 5 * time.Second, Retries: 2, Backoff: time.Millisecond})

	// An info frame on the count endpoint is the shard's 400.
	_, err := client.Call(ctx, srv.URL, "count", emptyFrame(msgInfoReq), msgCountResp)
	root.End()
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("got %v, want a 400 StatusError", err)
	}
	if n := posts.Load(); n != 1 {
		t.Errorf("traced 400 posted %d times, want 1", n)
	}

	var attempt string
	for _, sd := range rec.Trace("t-bad") {
		if sd.Name == "rpc:count" {
			attempt = sd.SpanID
		}
	}
	got := storeRec.Trace("t-bad")
	if len(got) != 1 || got[0].Name != "storage:count" || attempt == "" || got[0].ParentID != attempt {
		t.Fatalf("storage spans %+v, want one storage:count under attempt span %q", got, attempt)
	}
	if !reflect.DeepEqual(got[0].Attrs, obs.SpanAttrs{{Key: "code", Value: "400"}}) {
		t.Errorf("storage span attrs %v, want code 400", got[0].Attrs)
	}
}

// TestInboundIDBound sends request, trace and parent-span IDs of
// growing length to an API route and to an RPC: up to obs.MaxIDLen
// they are served (and traced), beyond it they get a 400, record no
// span and are not echoed.
func TestInboundIDBound(t *testing.T) {
	ds := testData(t, 40)
	f := func(target, header string, n, wantCode int, wantSpans uint64) {
		t.Helper()
		rec := obs.NewSpanRecorder(obs.SpanRecorderConfig{Node: target})
		var h http.Handler
		var req *http.Request
		switch target {
		case "api":
			h = server.New(server.Config{Spans: rec}).Handler()
			req = httptest.NewRequest(http.MethodGet, "/api/v1/models", nil)
		case "rpc":
			st := NewStorage(ds, nil)
			st.SetSpans(rec)
			h = st.Handler()
			req = httptest.NewRequest(http.MethodPost, "/rpc/v1/info", bytes.NewReader(emptyFrame(msgInfoReq)))
			// The other half of the trace context is well-formed.
			req.Header.Set(obs.TraceHeader, "t-1")
			req.Header.Set(obs.ParentSpanHeader, "s-1")
		}
		if n > 0 {
			req.Header.Set(header, strings.Repeat("x", n))
		} else {
			req.Header.Del(header)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != wantCode {
			t.Fatalf("%s %s of %d bytes: code %d, want %d (%s)", target, header, n, rr.Code, wantCode, rr.Body)
		}
		if got := rec.TotalSpans(); got != wantSpans {
			t.Fatalf("%s %s of %d bytes: %d spans recorded, want %d", target, header, n, got, wantSpans)
		}
		for k, vs := range rr.Header() {
			for _, v := range vs {
				if len(v) > obs.MaxIDLen {
					t.Fatalf("%s %s of %d bytes: response echoes %d bytes in %s", target, header, n, len(v), k)
				}
			}
		}
		if rr.Body.Len() > 4*obs.MaxIDLen {
			t.Fatalf("%s %s of %d bytes: %d-byte response body", target, header, n, rr.Body.Len())
		}
	}
	const mb = 1 << 20

	// API route: an absent ID is minted, so the root span is recorded.
	for _, header := range []string{"X-Request-Id", obs.TraceHeader} {
		f("api", header, 0, http.StatusOK, 1)
		f("api", header, obs.MaxIDLen, http.StatusOK, 1)
		f("api", header, obs.MaxIDLen+1, http.StatusBadRequest, 0)
		f("api", header, mb, http.StatusBadRequest, 0)
	}

	// RPC: no trace ID means an untraced call; no parent span ID
	// still continues the named trace.
	f("rpc", obs.TraceHeader, 0, http.StatusOK, 0)
	f("rpc", obs.TraceHeader, obs.MaxIDLen, http.StatusOK, 1)
	f("rpc", obs.TraceHeader, obs.MaxIDLen+1, http.StatusBadRequest, 0)
	f("rpc", obs.TraceHeader, mb, http.StatusBadRequest, 0)
	f("rpc", obs.ParentSpanHeader, 0, http.StatusOK, 1)
	f("rpc", obs.ParentSpanHeader, obs.MaxIDLen, http.StatusOK, 1)
	f("rpc", obs.ParentSpanHeader, obs.MaxIDLen+1, http.StatusBadRequest, 0)
	f("rpc", obs.ParentSpanHeader, mb, http.StatusBadRequest, 0)
}
