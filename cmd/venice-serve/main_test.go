package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serving"
)

// get fetches a URL and returns status plus body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

// TestServeChurnEndToEnd runs the churn scenario against a live
// venice-serve handler set and drives every endpoint: an SSE client
// must receive at least one failover event the run published, a
// deliberately stalled consumer must be dropped without stalling the
// simulation, and /metrics, /state, /trace, and /healthz must reflect
// the finished run.
func TestServeChurnEndToEnd(t *testing.T) {
	s := newServer(50 * time.Millisecond)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	// Before any scenario: healthz is up, state is 503.
	if code, body := get(t, ts.URL+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/state"); code != http.StatusServiceUnavailable {
		t.Fatalf("/state before any run = %d, want 503", code)
	}

	// A subscriber that never drains: one buffered slot, then it stalls.
	// The broadcaster must drop it rather than let it stall the run.
	slow := s.bcast.Subscribe(1)
	_ = slow

	// Live SSE client: collect data frames until the stream closes or we
	// have what we need.
	type sseResult struct {
		failovers int
		frames    int
		err       error
	}
	sseCh := make(chan sseResult, 1)
	failedOver := make(chan struct{}) // closed at the first failed-over frame
	sseCtx, cancelSSE := context.WithCancel(context.Background())
	defer cancelSSE()
	req, _ := http.NewRequestWithContext(sseCtx, "GET", ts.URL+"/events", nil)
	sseResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer sseResp.Body.Close()
	if ct := sseResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/events Content-Type = %q", ct)
	}
	go func() {
		var res sseResult
		sc := bufio.NewScanner(sseResp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			res.frames++
			var ev core.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				res.err = err
				break
			}
			if ev.Type == core.LeaseFailedOver {
				if res.failovers == 0 {
					close(failedOver)
				}
				res.failovers++
			}
		}
		sseCh <- res
	}()

	// The same cell the serving tests pin: fast churn on an 8-node mesh
	// reliably produces recoveries, hence failed-over events.
	runErr := s.runChurn(context.Background(), serving.Config{
		Workload: serving.Churn, Nodes: 8, Util: 0.7, Requests: 1500, Fault: serving.FaultFast, Seed: 1,
	}, 5*time.Millisecond, 0)
	if runErr != nil {
		t.Fatalf("runChurn: %v", runErr)
	}

	// The stalled consumer was dropped and the run completed anyway —
	// that return above IS the no-stall assertion; the drop count makes
	// it explicit.
	if _, dropped := s.bcast.Stats(); dropped < 1 {
		t.Errorf("slow consumer was not dropped (dropped=%d)", dropped)
	}
	if _, open := <-slow.C; !open {
		// drained the one buffered frame; channel must now be closed
	} else if _, open := <-slow.C; open {
		t.Error("slow consumer's channel still open after drop")
	}

	// Close the SSE stream and check what the live client saw. The run
	// takes milliseconds, so frames it published near its end may still
	// be on their way: hang up once a failed-over frame has arrived, or
	// after 10 s.
	select {
	case <-failedOver:
	case <-time.After(10 * time.Second):
	}
	cancelSSE()
	select {
	case res := <-sseCh:
		if res.err != nil {
			t.Fatalf("SSE frame decode: %v", res.err)
		}
		if res.frames == 0 {
			t.Fatal("SSE client saw no events during churn")
		}
		if res.failovers < 1 {
			t.Errorf("SSE client saw %d failed-over events, want >= 1", res.failovers)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SSE reader did not finish")
	}

	// /metrics: lease counters, scoreboard mirror, latency histogram.
	code, metrics := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`venice_lease_events_total{kind="memory",type="granted"}`,
		`venice_lease_events_total{kind="memory",type="failed-over"}`,
		`venice_mn_stats{key="recover.replaced"}`,
		"venice_request_latency_ns_count 1500",
		"venice_scenario_runs_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /state: the final snapshot parses and names donors.
	code, stateBody := get(t, ts.URL+"/state")
	if code != 200 {
		t.Fatalf("/state = %d", code)
	}
	var st struct {
		Shape  string `json:"shape"`
		Donors []any  `json:"donors"`
	}
	if err := json.Unmarshal([]byte(stateBody), &st); err != nil {
		t.Fatalf("/state not JSON: %v", err)
	}
	if st.Shape != "flat" || len(st.Donors) == 0 {
		t.Errorf("/state = shape %q, %d donors", st.Shape, len(st.Donors))
	}

	// /traces + /trace/{id}: every chain starts with a grant.
	code, tracesBody := get(t, ts.URL+"/traces")
	if code != 200 {
		t.Fatalf("/traces = %d", code)
	}
	var ids []uint64
	if err := json.Unmarshal([]byte(tracesBody), &ids); err != nil || len(ids) == 0 {
		t.Fatalf("/traces = %q (err %v), want ids", tracesBody, err)
	}
	code, traceBody := get(t, ts.URL+"/trace/"+jsonNum(ids[0]))
	if code != 200 {
		t.Fatalf("/trace/%d = %d", ids[0], code)
	}
	var chain struct {
		Spans []core.Event `json:"spans"`
	}
	if err := json.Unmarshal([]byte(traceBody), &chain); err != nil || len(chain.Spans) == 0 {
		t.Fatalf("/trace body %q (err %v)", traceBody, err)
	}
	if chain.Spans[0].Type != core.LeaseGranted {
		t.Errorf("trace chain starts with %v, want granted", chain.Spans[0].Type)
	}
	if code, _ := get(t, ts.URL+"/trace/999999999"); code != http.StatusNotFound {
		t.Errorf("/trace on unknown id = %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/trace/bogus"); code != http.StatusBadRequest {
		t.Errorf("/trace on garbage id = %d, want 400", code)
	}

	// /debug/pprof is mounted.
	if code, _ := get(t, ts.URL+"/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
	if code, body := get(t, ts.URL+"/healthz"); code != 200 || !strings.Contains(body, "runs=1") {
		t.Errorf("/healthz after run = %d %q, want runs=1", code, body)
	}
}

// TestSSEHeartbeat verifies idle /events connections receive keepalive
// comments.
func TestSSEHeartbeat(t *testing.T) {
	s := newServer(20 * time.Millisecond)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	beats := 0
	for sc.Scan() && beats < 2 {
		if strings.HasPrefix(sc.Text(), ": keepalive") {
			beats++
		}
	}
	if beats < 2 {
		t.Fatalf("saw %d keepalives, want >= 2", beats)
	}
}

// TestRunChurnPublishesFinalState checks that /state and /metrics show
// the finished run's counters however the throttle's snapshots fell:
// with a snapshot period longer than the run, the throttle publishes
// only its first snapshot, before any recovery.
func TestRunChurnPublishesFinalState(t *testing.T) {
	s := newServer(time.Hour)
	err := s.runChurn(context.Background(), serving.Config{
		Workload: serving.Churn, Nodes: 8, Util: 0.7, Requests: 1500, Fault: serving.FaultFast, Seed: 1,
	}, time.Hour, 0)
	if err != nil {
		t.Fatalf("runChurn: %v", err)
	}
	if st := s.cell.Get(); st == nil || st.Stats["recover.replaced"] == 0 {
		t.Errorf("/state after the run lacks the run's recover.replaced count")
	}
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	if _, metrics := get(t, ts.URL+"/metrics"); !strings.Contains(metrics, `venice_mn_stats{key="recover.replaced"}`) {
		t.Errorf("/metrics after the run lacks venice_mn_stats{key=\"recover.replaced\"}")
	}
}

// flushProbe is a ResponseWriter that records the broadcaster's
// subscriber count at the stream's first flush, then ends the request.
type flushProbe struct {
	*httptest.ResponseRecorder
	subs    func() int
	cancel  context.CancelFunc
	flushed bool
	atOpen  int
}

func (p *flushProbe) Flush() {
	if !p.flushed {
		p.flushed, p.atOpen = true, p.subs()
		p.cancel()
	}
	p.ResponseRecorder.Flush()
}

// TestSSESubscribesBeforeOpen checks that /events subscribes before it
// flushes the stream's opening comment: a client that has seen the
// stream open must not miss events published after that.
func TestSSESubscribesBeforeOpen(t *testing.T) {
	s := newServer(time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest("GET", "/events", nil).WithContext(ctx)
	p := &flushProbe{ResponseRecorder: httptest.NewRecorder(), subs: s.bcast.Subscribers, cancel: cancel}
	s.handleEvents(p, req)
	if !p.flushed {
		t.Fatal("/events never flushed")
	}
	if p.atOpen != 1 {
		t.Errorf("subscribers when the stream opened = %d, want 1", p.atOpen)
	}
	if n := s.bcast.Subscribers(); n != 0 {
		t.Errorf("subscribers after the handler returned = %d, want 0", n)
	}
}

// jsonNum formats an id the way the endpoints expect.
func jsonNum(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}
