package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"laacad/internal/core"
	"laacad/internal/fault"
	"laacad/internal/region"
	"laacad/internal/scenario"
	"laacad/internal/service"
)

const (
	daemonClients = 2
	// daemonCheckEvery is the stride of jobs whose result is compared bit
	// for bit with a direct scenario.Run of the same spec.
	daemonCheckEvery = 50
)

// daemon is the daemon-jobs workload: an in-process service.Server behind a
// loopback HTTP listener (fresh spool, default SyncAlways journal, Pool 2),
// driven by daemonClients closed-loop clients. Each op is one job, 10 nodes
// uniform over the square with k=2 and placement seed seed+i: Submit, Watch
// the event stream to a terminal state, then fetch the Result.
type daemon struct {
	seed   int64
	reg    *region.Region
	dir    string
	srv    *service.Server
	hs     *http.Server
	served chan error
	client *service.Client
	fs     *timedFS // nil when untraced
}

func newDaemon(seed int64, traced bool) (bench, error) {
	reg, err := scenario.LookupRegion("square")
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "perfbench-spool-")
	if err != nil {
		return nil, err
	}
	d := &daemon{seed: seed, reg: reg, dir: dir}
	cfg := service.Config{SpoolDir: dir, Pool: 2}
	if traced {
		d.fs = &timedFS{}
		cfg.FS = d.fs
	}
	if d.srv, err = service.New(cfg); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	transport := &http.Transport{MaxConnsPerHost: daemonClients, MaxIdleConnsPerHost: daemonClients}
	d.client = &service.Client{BaseURL: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: transport}}
	return d, nil
}

func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	d.client.HTTPClient.CloseIdleConnections()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

func daemonSpec(seed int64, i int) service.JobSpec {
	cfg := core.DefaultConfig(2)
	cfg.Seed = seed + int64(i)
	return service.JobSpec{Scenario: scenario.Scenario{Region: "square", Placement: "uniform", N: 10, Config: cfg}}
}

// jobRecord is what one op leaves for the checks after the timed phase.
type jobRecord struct {
	i         int
	ms        float64
	err       error
	state     service.JobState
	events    int
	res       *core.Result
	resultLen int
}

func (d *daemon) run(ops []int, tr *tracer) (*phase, error) {
	ph := &phase{layers: map[string]float64{}}
	recs := make([]jobRecord, len(ops))
	var next atomic.Int64
	var submitMS, queueMS, runMS, resultMS []float64
	var mu sync.Mutex // guards the slices above
	appends0 := d.srv.Journal().Stats().Appends
	if d.fs != nil {
		d.fs.bytes.Store(0)
		d.fs.tr.Store(tr)
	}

	alloc0 := allocBytes()
	c0 := cpuMS()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if n >= len(ops) {
					return
				}
				rec := d.job(ops[n], tr)
				recs[n] = rec.jobRecord
				if tr != nil {
					mu.Lock()
					submitMS = append(submitMS, rec.submit)
					resultMS = append(resultMS, rec.result)
					if rec.queue >= 0 {
						queueMS = append(queueMS, rec.queue)
						runMS = append(runMS, rec.run)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	t1 := time.Now()
	ph.cpuMS = cpuMS() - c0
	ph.allocB = allocBytes() - alloc0
	ph.wallS = t1.Sub(t0).Seconds()
	ph.heapMB = heapLiveMB()
	if d.fs != nil {
		d.fs.tr.Store(nil)
	}

	var events, resultBytes float64
	for n := range recs {
		r := &recs[n]
		ph.opMS = append(ph.opMS, r.ms)
		if err := d.check(r, n%daemonCheckEvery == 0, tr); err != nil {
			ph.failures = append(ph.failures, fmt.Sprintf("daemon job %d: %v", r.i, err))
		}
		if r.res != nil {
			ph.rStar = append(ph.rStar, r.res.MaxRadius())
			ph.msgs = append(ph.msgs, float64(r.res.Messages))
			if tr != nil && len(ph.captures) < 8 {
				ph.captures = append(ph.captures, capture{r.res.Positions, daemonSpec(d.seed, r.i).Scenario.Config})
			}
		}
		events += float64(r.events)
		resultBytes += float64(r.resultLen)
	}
	if tr != nil {
		jobs := float64(len(recs))
		rounds := 0.0
		for _, r := range recs {
			if r.res != nil {
				rounds += float64(r.res.Rounds)
			}
		}
		m := ph.layers
		m["core.rounds_per_op"] = rounds / jobs
		m["scenario.build_ms"] = median(tr.durations("scenario.build"))
		m["service.submit_ms"] = median(submitMS)
		m["service.queue_ms"] = median(queueMS)
		m["service.run_ms"] = median(runMS)
		m["service.result_ms"] = median(resultMS)
		m["service.events_per_job"] = events / jobs
		m["service.result_kb"] = resultBytes / jobs / 1024
		syncs := tr.durations("journal.sync")
		m["journal.sync_ms_p50"] = median(syncs)
		m["journal.sync_ms_tail"] = percentile(syncs, tailPercentile(len(syncs)))
		m["journal.write_ms_p50"] = median(tr.durations("journal.write"))
		m["journal.appends_per_job"] = float64(d.srv.Journal().Stats().Appends-appends0) / jobs
		m["journal.kb_per_job"] = float64(d.fs.bytes.Load()) / jobs / 1024
	}
	return ph, nil
}

type timedJob struct {
	jobRecord
	submit, queue, run, result float64 // ms; queue and run are -1 when no running event arrived
}

// job runs op i through the daemon.
func (d *daemon) job(i int, tr *tracer) timedJob {
	ctx := context.Background()
	tj := timedJob{jobRecord: jobRecord{i: i}, queue: -1, run: -1}
	t0 := time.Now()
	root := tr.open("bench.op", i, -1, t0)
	st, err := d.client.Submit(ctx, daemonSpec(d.seed, i))
	t1 := time.Now()
	tr.record("service.submit", i, root, t0, t1)
	var tRun, tEnd time.Time
	if err == nil {
		err = d.client.Watch(ctx, st.ID, 0, func(e service.Event) error {
			tj.events++
			if e.Type != "state" {
				return nil
			}
			if tr != nil && e.State == service.StateRunning && tRun.IsZero() {
				tRun = time.Now()
			}
			if e.State.Terminal() {
				tj.state = e.State
				if tr != nil {
					tEnd = time.Now()
				}
			}
			return nil
		})
	}
	t2 := time.Now()
	tr.record("service.watch", i, root, t1, t2)
	if err == nil {
		tj.res, err = d.client.Result(ctx, st.ID)
	}
	t3 := time.Now()
	tr.record("service.result", i, root, t2, t3)
	tr.close(root, t3)
	tj.ms, tj.err = msSince(t0, t3), err
	if tr != nil {
		tj.submit, tj.result = msSince(t0, t1), msSince(t2, t3)
		if !tRun.IsZero() && !tEnd.IsZero() {
			tj.queue, tj.run = msSince(t1, tRun), msSince(tRun, tEnd)
		}
		if tj.res != nil {
			if data, err := json.Marshal(tj.res); err == nil {
				tj.resultLen = len(data)
			}
		}
	}
	return tj
}

// check gates one job: it ended done with a converged, k-covering result,
// and, when direct is set, that result is bit for bit a direct
// scenario.Run of the same spec.
func (d *daemon) check(r *jobRecord, direct bool, tr *tracer) error {
	if r.err != nil {
		return r.err
	}
	if r.state != service.StateDone {
		return fmt.Errorf("ended %q", r.state)
	}
	sc := daemonSpec(d.seed, r.i).Scenario
	if err := checkResult(r.res, d.reg, sc.Config.K); err != nil {
		return err
	}
	if !direct {
		return nil
	}
	t0 := time.Now()
	runner, err := scenario.NewRunner(sc)
	if err != nil {
		return err
	}
	if tr != nil {
		tr.record("scenario.build", r.i, -1, t0, time.Now())
	}
	want, err := runner.Run(context.Background())
	if err != nil {
		return err
	}
	return sameResult(r.res, want)
}

func sameResult(got, want *core.Result) error {
	if got.Rounds != want.Rounds || got.Converged != want.Converged || got.Messages != want.Messages {
		return fmt.Errorf("result differs from a direct run: rounds %d/%d converged %v/%v messages %d/%d",
			got.Rounds, want.Rounds, got.Converged, want.Converged, got.Messages, want.Messages)
	}
	if len(got.Positions) != len(want.Positions) || len(got.Radii) != len(want.Radii) || len(got.Trace) != len(want.Trace) {
		return fmt.Errorf("result differs from a direct run in length")
	}
	for i := range want.Positions {
		if !sameFloat(got.Positions[i].X, want.Positions[i].X) || !sameFloat(got.Positions[i].Y, want.Positions[i].Y) ||
			!sameFloat(got.Radii[i], want.Radii[i]) {
			return fmt.Errorf("node %d differs from a direct run", i)
		}
	}
	for i, w := range want.Trace {
		g := got.Trace[i]
		if g.Round != w.Round || g.Moved != w.Moved || g.Messages != w.Messages ||
			!sameFloat(g.MaxCircumradius, w.MaxCircumradius) || !sameFloat(g.MinCircumradius, w.MinCircumradius) ||
			!sameFloat(g.MaxRhat, w.MaxRhat) || !sameFloat(g.MaxMove, w.MaxMove) {
			return fmt.Errorf("round %d differs from a direct run", w.Round)
		}
	}
	return nil
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// timedFS is the daemon's filesystem with the journal's appends and fsyncs
// recorded as spans. Writes are counted in bytes.
type timedFS struct {
	fault.OS
	tr    atomic.Pointer[tracer] // nil outside a traced phase
	bytes atomic.Int64
}

func (f *timedFS) Append(path string) (fault.File, error) {
	fl, err := f.OS.Append(path)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: fl, fs: f}, nil
}

func (f *timedFS) Create(path string) (fault.File, error) {
	fl, err := f.OS.Create(path)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: fl, fs: f}, nil
}

func (f *timedFS) WriteFile(path string, data []byte, perm os.FileMode) error {
	t0 := time.Now()
	err := f.OS.WriteFile(path, data, perm)
	f.tr.Load().record("journal.writefile", -1, -1, t0, time.Now())
	f.bytes.Add(int64(len(data)))
	return err
}

type timedFile struct {
	fault.File
	fs *timedFS
}

func (t *timedFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.File.Write(p)
	t.fs.tr.Load().record("journal.write", -1, -1, t0, time.Now())
	t.fs.bytes.Add(int64(n))
	return n, err
}

func (t *timedFile) Sync() error {
	t0 := time.Now()
	err := t.File.Sync()
	t.fs.tr.Load().record("journal.sync", -1, -1, t0, time.Now())
	return err
}
