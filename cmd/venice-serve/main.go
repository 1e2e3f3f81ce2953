// Command venice-serve exposes a live Venice control plane over HTTP:
// it runs a simulation scenario (the serving-under-churn availability
// scenario, or an idle cluster with agents heartbeating) and serves
// the control plane's observability surfaces while virtual time
// advances —
//
//	/healthz          liveness (200 once serving)
//	/metrics          Prometheus text exposition: lease-lifecycle
//	                  counters, MN scoreboard gauges, request-latency
//	                  histograms
//	/state            JSON snapshot: donors (RRT), leases (RAT) with
//	                  trace ids, delegation table, rack health, link
//	                  telemetry, MN stats
//	/trace/{id}       one lease's span chain (acquire → grant →
//	                  failover/migrate → release) as JSON
//	/traces           live trace ids
//	/events           Server-Sent Events stream of every
//	                  lease-lifecycle event, heartbeat keepalives
//	                  included; slow consumers are dropped rather than
//	                  allowed to stall the simulation
//	/debug/pprof/*    standard Go profiling endpoints
//
// The simulation runs on one goroutine; HTTP handlers only read
// thread-safe observability structures and atomically swapped state
// snapshots, so serving traffic never perturbs virtual time — a
// paused or profiled server still produces byte-identical scenario
// results.
//
// Usage:
//
//	venice-serve [-addr :8080] [-scenario churn|idle] [-fault fast]
//	             [-requests N] [-util f] [-loop] [-interval 1s]
//	             [-pace 0] [-heartbeat 15s] [-snapshot 100ms]
//
// A scenario that fails (a bad flag value, a lost request) shuts the
// HTTP server down cleanly and exits 1; a non-positive -heartbeat
// exits 1 before listening; SIGTERM or SIGINT exits 0.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serving"
	"repro/internal/sim"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	scenario := flag.String("scenario", "churn", "what to run: churn (serving under donor churn) or idle (agents heartbeating, no load)")
	fault := flag.String("fault", "fast", "churn fault rate: none, slow, or fast")
	requests := flag.Int("requests", 4000, "churn: measured requests per run")
	util := flag.Float64("util", 0.6, "churn: offered load as a fraction of calibrated capacity")
	loop := flag.Bool("loop", true, "rerun the scenario continuously (false: one run, then keep serving final state)")
	interval := flag.Duration("interval", time.Second, "wall-clock pause between scenario runs with -loop")
	pace := flag.Duration("pace", 0, "wall-clock sleep per 1024 engine steps (0 = run at full speed)")
	heartbeat := flag.Duration("heartbeat", 15*time.Second, "SSE keepalive period on /events")
	snapshot := flag.Duration("snapshot", 100*time.Millisecond, "minimum wall-clock interval between /state snapshots")
	flag.Parse()
	if *heartbeat <= 0 {
		// time.NewTicker panics on a non-positive period, which would drop
		// every /events client mid-stream.
		log.Fatalf("venice-serve: -heartbeat %v: the SSE keepalive period must be positive", *heartbeat)
	}

	s := newServer(*heartbeat)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpSrv := &http.Server{Addr: *addr, Handler: s.mux}
	httpDone := make(chan error, 1)
	go func() { httpDone <- httpSrv.ListenAndServe() }()
	log.Printf("venice-serve: listening on %s (scenario %s)", *addr, *scenario)

	simDone := make(chan error, 1)
	go func() {
		defer close(simDone)
		for {
			var err error
			switch *scenario {
			case "churn":
				err = s.runChurn(ctx, serving.Config{
					Workload: serving.Churn,
					Requests: *requests,
					Util:     *util,
					Fault:    serving.FaultRate(*fault),
					Seed:     1,
				}, *snapshot, *pace)
			case "idle":
				err = s.runIdle(ctx, *snapshot)
			default:
				err = fmt.Errorf("unknown -scenario %q (want churn or idle)", *scenario)
			}
			if err != nil {
				simDone <- err
				return
			}
			if !*loop || ctx.Err() != nil {
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(*interval):
			}
		}
	}()

	var scenarioErr error
	select {
	case scenarioErr = <-simDone:
		if scenarioErr != nil {
			log.Printf("venice-serve: scenario: %v", scenarioErr)
			stop()
		} else {
			log.Printf("venice-serve: scenario finished; serving final state (ctrl-c to exit)")
			<-ctx.Done()
		}
	case <-ctx.Done():
	case err := <-httpDone:
		log.Fatalf("venice-serve: http: %v", err)
	}

	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	err := httpSrv.Shutdown(shCtx)
	cancel()
	if err != nil {
		log.Printf("venice-serve: shutdown: %v", err)
	}
	log.Printf("venice-serve: bye")
	if scenarioErr != nil {
		os.Exit(1) // a failed scenario fails the process, after the clean HTTP shutdown
	}
}

// server owns the observability state the handlers read: one metrics
// registry and event broadcaster for the process lifetime, a trace
// store swapped per scenario run (trace ids restart with each fresh
// cluster), and the atomically published state snapshot.
type server struct {
	mux       *http.ServeMux
	reg       *obs.Registry
	bcast     *obs.Broadcaster
	traces    atomic.Pointer[obs.TraceStore]
	cell      obs.StateCell
	heartbeat time.Duration
	runs      atomic.Int64
}

// newServer builds the handler set. heartbeat is the SSE keepalive
// period.
func newServer(heartbeat time.Duration) *server {
	s := &server{
		mux:       http.NewServeMux(),
		reg:       &obs.Registry{},
		bcast:     obs.NewBroadcaster(),
		heartbeat: heartbeat,
	}
	s.traces.Store(obs.NewTraceStore(0))

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /state", s.handleState)
	s.mux.HandleFunc("GET /trace/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /traces", s.handleTraces)
	s.mux.HandleFunc("GET /events", s.handleEvents)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// runChurn executes one serving-under-churn pass with the
// observability hooks wired in: the collector feeds the registry,
// trace store, and SSE broadcaster from the plane's event stream, and
// the engine-step throttle publishes state snapshots (at most one per
// snapEvery of wall clock) plus optional pacing. A last snapshot once
// the run ends publishes the finished run's state.
func (s *server) runChurn(ctx context.Context, cfg serving.Config, snapEvery, pace time.Duration) error {
	traces := obs.NewTraceStore(0)
	s.traces.Store(traces)
	col := &obs.Collector{Reg: s.reg, Traces: traces, Events: s.bcast}
	lat := s.reg.Histogram("venice_request_latency_ns",
		"End-to-end serving request latency (virtual nanoseconds).", nil)

	var cl *core.Cluster
	var lastSnap time.Time
	steps := 0
	snap := func() {
		st := obs.SnapshotFlat(cl)
		s.cell.Set(st)
		col.MirrorScoreboard("venice_mn_stats",
			"Monitor Node scoreboard counters (grants, recoveries, spare-pool hits, migrations).",
			&cl.MN.Stats)
		s.reg.Gauge("venice_live_leases", "Live RAT rows.", nil).Set(float64(len(st.Leases)))
		s.reg.Gauge("venice_donors", "Registered donors.", nil).Set(float64(len(st.Donors)))
	}

	cfg.OnCluster = func(c *core.Cluster) {
		cl = c
		col.Attach(c) // the cluster dies with the run; no cancel needed
		snap()
	}
	cfg.Observe = lat.ObserveDur
	cfg.Throttle = func() {
		steps++
		if pace > 0 && steps%1024 == 0 {
			time.Sleep(pace)
		}
		// ctx cancellation cannot abort serving.Run mid-run (the scenario
		// owns its engine loop); pacing just stops so shutdown is quick.
		if ctx.Err() != nil {
			pace = 0
		}
		if time.Since(lastSnap) >= snapEvery {
			lastSnap = time.Now()
			snap()
		}
	}

	s.reg.Counter("venice_scenario_runs_total", "Completed scenario runs.", nil)
	res, err := serving.Run(cfg)
	if err != nil {
		return err
	}
	snap()
	s.reg.Counter("venice_scenario_runs_total", "", nil).Inc()
	s.reg.Gauge("venice_last_goodput_rps", "Last run's goodput (completions within SLO per second).", nil).Set(res.GoodputRPS)
	s.reg.Gauge("venice_last_recoveries", "Last run's completed lease re-placements.", nil).Set(float64(res.Recoveries))
	s.runs.Add(1)
	return nil
}

// runIdle builds a flat cluster with agents and recovery running and
// advances virtual time in small slices paced against the wall clock,
// publishing snapshots, until ctx is cancelled. No load is offered;
// this is the "watch a healthy control plane heartbeat" mode.
func (s *server) runIdle(ctx context.Context, snapEvery time.Duration) error {
	traces := obs.NewTraceStore(0)
	s.traces.Store(traces)
	col := &obs.Collector{Reg: s.reg, Traces: traces, Events: s.bcast}

	cl := core.NewCluster(core.Config{StartAgents: true, StartRecovery: true})
	defer cl.Close()
	col.Attach(cl)

	for ctx.Err() == nil {
		cl.RunFor(10 * sim.Millisecond)
		st := obs.SnapshotFlat(cl)
		s.cell.Set(st)
		col.MirrorScoreboard("venice_mn_stats", "Monitor Node scoreboard counters.", &cl.MN.Stats)
		s.reg.Gauge("venice_donors", "Registered donors.", nil).Set(float64(len(st.Donors)))
		select {
		case <-ctx.Done():
		case <-time.After(snapEvery):
		}
	}
	s.runs.Add(1)
	return nil
}

// handleHealthz reports liveness and whether a snapshot exists yet.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok runs=%d snapshot=%v\n", s.runs.Load(), s.cell.Get() != nil)
}

// handleMetrics serves the Prometheus text exposition.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WriteProm(w); err != nil {
		log.Printf("venice-serve: /metrics: %v", err)
	}
}

// handleState serves the latest control-plane snapshot as JSON.
func (s *server) handleState(w http.ResponseWriter, _ *http.Request) {
	st := s.cell.Get()
	if st == nil {
		http.Error(w, "no snapshot yet", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(st); err != nil {
		log.Printf("venice-serve: /state: %v", err)
	}
}

// handleTrace serves one lease's span chain.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad trace id", http.StatusBadRequest)
		return
	}
	chain := s.traces.Load().Get(id)
	if chain == nil {
		http.Error(w, "unknown trace (never seen, or evicted)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(map[string]any{"trace": id, "spans": chain}); err != nil {
		log.Printf("venice-serve: /trace: %v", err)
	}
}

// handleTraces lists live trace ids.
func (s *server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.traces.Load().IDs()); err != nil {
		log.Printf("venice-serve: /traces: %v", err)
	}
}

// handleEvents streams lease-lifecycle events as Server-Sent Events.
// Each event is one `data:` frame carrying the core.Event JSON;
// comment frames keep idle connections alive. The handler subscribes
// before it opens the stream, so a client that has seen the stream
// open misses no event published after that. A client that stops
// reading fills its fan-out buffer and is dropped by the broadcaster
// (its channel closes and this handler returns) — publishing never
// blocks on it.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub := s.bcast.Subscribe(256)
	defer s.bcast.Unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	fmt.Fprint(w, ": venice-serve event stream\n\n")
	fl.Flush()

	hb := time.NewTicker(s.heartbeat)
	defer hb.Stop()

	for {
		select {
		case <-r.Context().Done():
			return
		case <-hb.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case msg, open := <-sub.C:
			if !open {
				// Dropped for falling behind; tell the client why before
				// closing.
				fmt.Fprint(w, "event: dropped\ndata: \"slow consumer\"\n\n")
				fl.Flush()
				return
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", msg); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
