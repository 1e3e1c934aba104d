package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"time"

	"gptpfta/internal/obs"
	"gptpfta/internal/serve"
)

// The served workload: an in-process job server on a loopback listener,
// fed an open-loop, seeded arrival schedule of two-plan netchaos campaigns.
const (
	jobSimSeconds = 150 // duration of each plan's run, simulated seconds
	jobPlans      = 2   // one burst-loss plan, one partition plan
	// arrivalRate is the offered load in jobs per host second. On a
	// 2-vCPU Xeon, 4.5 kept the two workers busy 47-49% of the time and
	// 3.5 keeps them at 29-43% (worker_busy_frac in the details line).
	arrivalRate = 3.5
	// minJobs keeps the job-latency p90 above the minBeyond rule.
	minJobs = 110
	// poolSize prefix seeds, more than the server's 8 cache entries, drawn
	// with Zipf popularity (weight 1/rank).
	poolSize = 32
	// coldShare of the jobs are submitted warm:false.
	coldShare = 0.25
	// serveSetups is how often set-up is repeated for the setup_s median.
	serveSetups = 9
	// serveWorkers is the server's worker pool size.
	serveWorkers = 2
)

// jobConfig is every job's netchaos config: plan runs of jobSimSeconds
// whose faults start at 120 s, so warm jobs share a 115 s prefix. The
// point pool is sequential so each job keeps to one worker.
var jobConfig = json.RawMessage(fmt.Sprintf(
	`{"duration":%d,"chaos_start":%d,"burst_bad_loss":[0.25],"partition_durations":[%d],"parallel":1}`,
	int64(jobSimSeconds*time.Second), int64(120*time.Second), int64(5*time.Second)))

// arrival is one generated request.
type arrival struct {
	At   time.Duration // due time after the window opens
	Seed int64         // prefix seed
	Warm bool
}

// schedule derives n arrivals from the benchmark seed alone. Seed
// popularity and the cold share are fixed quotas; the seed picks the pool,
// the order and ±40% jitter around evenly paced arrival times.
func schedule(seed int64, n int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]int64, poolSize)
	seen := map[int64]bool{}
	for i := range pool {
		for pool[i] == 0 || seen[pool[i]] {
			pool[i] = 1 + rng.Int63n(1<<30)
		}
		seen[pool[i]] = true
	}
	// Largest-remainder quotas of n over weights 1/rank.
	var wsum float64
	for r := 1; r <= poolSize; r++ {
		wsum += 1 / float64(r)
	}
	quota := make([]int, poolSize)
	type rem struct {
		i int
		f float64
	}
	rems := make([]rem, poolSize)
	left := n
	for i := range quota {
		exact := float64(n) / float64(i+1) / wsum
		quota[i] = int(exact)
		left -= quota[i]
		rems[i] = rem{i, exact - float64(quota[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].f > rems[b].f })
	for k := 0; k < left; k++ {
		quota[rems[k].i]++
	}
	seeds := make([]int64, 0, n)
	for i, q := range quota {
		for ; q > 0; q-- {
			seeds = append(seeds, pool[i])
		}
	}
	rng.Shuffle(len(seeds), func(a, b int) { seeds[a], seeds[b] = seeds[b], seeds[a] })
	cold := int(math.Round(coldShare * float64(n)))
	out := make([]arrival, n)
	for k, idx := range rng.Perm(n) {
		out[idx].Warm = k >= cold
	}
	for k := range out {
		jitter := 0.8*rng.Float64() - 0.4
		out[k].At = time.Duration((float64(k) + 0.5 + jitter) / arrivalRate * float64(time.Second))
		out[k].Seed = seeds[k]
	}
	return out
}

// service is one in-process server behind a loopback HTTP listener, and
// the benchmark's single-connection client.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	tr     *http.Transport
}

func startService() (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := serve.New(serve.Options{Workers: serveWorkers, PointParallel: 1})
	srv.Start()
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: tr, Timeout: time.Minute},
		tr:     tr,
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the listener, the workers and the client down and waits for
// the serving goroutine to return.
func (s *service) close() {
	s.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a failed graceful shutdown still closes the listener
	<-s.served
	s.srv.Stop()
}

// do sends one request and reads the whole body.
func (s *service) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (s *service) submit(seed int64, warm bool) (int, serve.JobStatus, error) {
	body, _ := json.Marshal(serve.JobRequest{Experiment: "netchaos", Config: jobConfig, Seed: seed, Warm: &warm})
	code, b, err := s.do(http.MethodPost, "/v1/jobs", body)
	var st serve.JobStatus
	if err == nil && code == http.StatusAccepted {
		err = json.Unmarshal(b, &st)
	}
	return code, st, err
}

// await polls the job list until every id is terminal.
func (s *service) await(ids map[string]bool) (map[string]serve.JobStatus, error) {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, b, err := s.do(http.MethodGet, "/v1/jobs", nil)
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("list jobs: %d %v", code, err)
		}
		var list struct{ Jobs []serve.JobStatus }
		if err := json.Unmarshal(b, &list); err != nil {
			return nil, err
		}
		out := map[string]serve.JobStatus{}
		pending := 0
		for _, st := range list.Jobs {
			if ids[st.ID] {
				out[st.ID] = st
				if !st.State.Terminal() {
					pending++
				}
			}
		}
		if pending == 0 && len(out) == len(ids) {
			return out, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%d jobs still pending", pending)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// setUpService starts a server and runs one cold warm-up job with a seed
// outside the pool to completion; the set-up time ends at its Finished
// stamp.
func setUpService(rec *Recorder) (*service, float64, error) {
	t0 := time.Now()
	s, err := startService()
	if err != nil {
		return nil, 0, err
	}
	code, st, err := s.submit(1<<40, false)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("warm-up submit: HTTP %d", code)
	}
	var done map[string]serve.JobStatus
	if err == nil {
		done, err = s.await(map[string]bool{st.ID: true})
	}
	if err == nil && (done[st.ID].State != serve.JobDone || done[st.ID].Finished == nil) {
		err = fmt.Errorf("warm-up job %s", done[st.ID].State)
	}
	if err != nil {
		s.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	end := *done[st.ID].Finished
	rec.Add(Span{Name: "setup", Start: t0, End: end, Parent: -1})
	return s, end.Sub(t0).Seconds(), nil
}

// jobRec is one generated job as the benchmark observed it.
type jobRec struct {
	arrival
	due, sent time.Time
	submit    time.Duration
	code      int
	status    serve.JobStatus
	class     string // cold, hit or miss
	surface   []byte // Summary+Rows of every point
	fetchAt   time.Time
	fetch     time.Duration
	runner    counts       // the job's runner block
	obs       []obs.Metric // the job's last-point system snapshot
}

func (j *jobRec) done() bool { return j.code == http.StatusAccepted && j.status.State == serve.JobDone }

func (j *jobRec) runS() float64 { return j.status.Finished.Sub(*j.status.Started).Seconds() }

// window is one open-loop run over a schedule.
type window struct {
	start     time.Time
	jobs      []*jobRec
	lags      []float64 // generator lateness, ms
	bytesPeak int64
	before    counts // server registry at the window's start
	after     counts
	hostA     host
	hostB     host
}

// drive submits the schedule on time from one goroutine, waits for every
// accepted job, then fetches each result and metrics stream.
func (s *service) drive(sched []arrival, rec *Recorder) (*window, error) {
	w := &window{before: countsOf(s.srv.Metrics().Snapshot()), hostA: readHost(), start: time.Now()}
	ids := map[string]bool{}
	for _, a := range sched {
		j := &jobRec{arrival: a, due: w.start.Add(a.At)}
		time.Sleep(time.Until(j.due))
		j.sent = time.Now()
		w.lags = append(w.lags, float64(j.sent.Sub(j.due).Microseconds())/1e3)
		code, st, err := s.submit(a.Seed, a.Warm)
		if err != nil {
			return nil, fmt.Errorf("submit: %w", err)
		}
		j.submit, j.code, j.status = time.Since(j.sent), code, st
		if code == http.StatusAccepted {
			ids[st.ID] = true
		}
		w.bytesPeak = max(w.bytesPeak, s.srv.Cache().Bytes())
		w.jobs = append(w.jobs, j)
	}
	final, err := s.await(ids)
	if err != nil {
		return nil, err
	}
	w.bytesPeak = max(w.bytesPeak, s.srv.Cache().Bytes())
	w.after = countsOf(s.srv.Metrics().Snapshot())
	w.hostB = readHost()
	for i, j := range w.jobs {
		if j.code != http.StatusAccepted {
			continue
		}
		j.status = final[j.status.ID]
		if j.status.State != serve.JobDone {
			continue
		}
		if err := s.collect(j); err != nil {
			return nil, err
		}
		if rec != nil {
			id := j.status.ID
			root := rec.Add(Span{Name: "job", ID: id, Start: j.due, End: *j.status.Finished, Parent: -1, Lane: i + 1})
			rec.Add(Span{Name: "serve.submit", ID: id, Start: j.sent, End: j.sent.Add(j.submit), Parent: root, Lane: i + 1})
			rec.Add(Span{Name: "serve.queue_wait", ID: id, Start: j.status.Created, End: *j.status.Started, Parent: root, Lane: i + 1})
			rec.Add(Span{Name: "serve.run." + j.class, ID: id, Start: *j.status.Started, End: *j.status.Finished, Parent: root, Lane: i + 1})
			// The result is fetched after the window drains: a root of
			// its own, tied to the job by its ID.
			rec.Add(Span{Name: "serve.result", ID: id, Start: j.fetchAt, End: j.fetchAt.Add(j.fetch), Parent: -1, Lane: i + 1})
		}
	}
	return w, nil
}

// collect fetches a done job's result (timed) and runner counters, and
// classifies it.
func (s *service) collect(j *jobRec) error {
	id := j.status.ID
	j.fetchAt = time.Now()
	code, b, err := s.do(http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	j.fetch = time.Since(j.fetchAt)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("result of %s: %d %v", id, code, err)
	}
	var res struct {
		Results []struct {
			Summary string
			Rows    [][]string
			Obs     []obs.Metric
		}
	}
	if err := json.Unmarshal(b, &res); err != nil {
		return fmt.Errorf("result of %s: %w", id, err)
	}
	type surface struct {
		Summary string
		Rows    [][]string
	}
	var surf []surface
	for _, r := range res.Results {
		surf = append(surf, surface{r.Summary, r.Rows})
		j.obs = r.Obs
	}
	j.surface, _ = json.Marshal(surf)

	code, b, err = s.do(http.MethodGet, "/v1/jobs/"+id+"/metrics", nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("metrics of %s: %d %v", id, code, err)
	}
	recs, err := obs.ReadJSONL(bytes.NewReader(b))
	if err != nil {
		return fmt.Errorf("metrics of %s: %w", id, err)
	}
	var block []obs.Metric
	for _, r := range recs {
		if r.Run == "job" {
			block = append(block, r.Metric)
		}
	}
	j.runner = countsOf(block)
	switch {
	case !j.Warm:
		j.class = "cold"
	case j.runner["runner_prefix_runs"] > 0 || j.runner["runner_cold_fallbacks"] > 0:
		j.class = "miss"
	default:
		j.class = "hit"
	}
	return nil
}

// deliveredSimS is the simulated time one done job returns.
const deliveredSimS = jobPlans * jobSimSeconds

// runServed runs the served workload: repeated set-up, then the open-loop
// window (traced: an untraced reference window on its own server first).
func runServed(o options, out *outcome) error {
	var svc *service
	defer func() {
		if svc != nil {
			svc.close()
		}
	}()
	var setups []float64
	for i := 0; i < serveSetups; i++ {
		if svc != nil {
			svc.close()
			svc = nil
		}
		runtime.GC()
		s, t, err := setUpService(o.rec)
		if err != nil {
			return err
		}
		svc, setups = s, append(setups, t)
	}
	out.metrics["setup_s"] = median(setups)
	out.detail["setup_s_runs"] = len(setups)

	n := max(minJobs, int(math.Ceil(arrivalRate*o.seconds)))
	sched := schedule(o.seed, n)
	var w, ref *window
	var err error
	if o.rec == nil {
		w, err = svc.drive(sched, nil)
	} else {
		if ref, err = svc.drive(sched[:max(20, n/3)], nil); err != nil {
			return err
		}
		svc.close()
		if svc, _, err = setUpService(nil); err != nil {
			return err
		}
		var prof []byte
		prof, err = profile(func() error {
			var e error
			w, e = svc.drive(sched, o.rec)
			return e
		})
		if err == nil {
			err = out.cpuShares(prof)
		}
	}
	if err != nil {
		return err
	}
	if err := servedMetrics(w, out); err != nil {
		return err
	}
	if o.rec != nil {
		out.metrics["bench.trace_overhead_frac"] = w.costPerSimS()/ref.costPerSimS() - 1
		if err := servedLayers(w, out.metrics); err != nil {
			return err
		}
	}
	// Drop the benchmark's own job records so the heap is the server's:
	// its job table and snapshot cache.
	w, ref = nil, nil
	out.metrics["heap_live_mb"] = liveHeapMiB()
	return nil
}

// costPerSimS is host run time per delivered simulated second.
func (w *window) costPerSimS() float64 {
	var run, simS float64
	for _, j := range w.jobs {
		if j.done() {
			run += j.runS()
			simS += deliveredSimS
		}
	}
	return run / simS
}

// busyFrac is the share of the workers' time spent running jobs, from the
// window's start to the end of its last job.
func (w *window) busyFrac() float64 {
	var run float64
	end := w.start
	for _, j := range w.jobs {
		if j.done() {
			run += j.runS()
			if j.status.Finished.After(end) {
				end = *j.status.Finished
			}
		}
	}
	return ratio(run, serveWorkers*end.Sub(w.start).Seconds())
}

// servedMetrics fills the end-to-end figures and runs the output checks.
func servedMetrics(w *window, out *outcome) error {
	out.attempted = len(w.jobs)
	var lat []float64
	var run float64
	bySeed := map[int64]map[string][][]byte{}
	for _, j := range w.jobs {
		if !j.done() {
			out.failed++
			continue
		}
		lat = append(lat, j.status.Finished.Sub(j.due).Seconds())
		run += j.runS()
		if bySeed[j.Seed] == nil {
			bySeed[j.Seed] = map[string][][]byte{}
		}
		bySeed[j.Seed][j.class] = append(bySeed[j.Seed][j.class], j.surface)
	}
	out.check(out.failed == 0, "%d of %d jobs did not end done", out.failed, out.attempted)

	// Warm/cold equivalence: every warm job's Summary+Rows equals its
	// warm:false twin's.
	pairs := map[string]int{}
	for seed, cls := range bySeed {
		if len(cls["cold"]) == 0 {
			continue
		}
		twin := cls["cold"][0]
		for _, class := range []string{"cold", "hit", "miss"} {
			for _, s := range cls[class] {
				out.check(bytes.Equal(s, twin), "seed %d: %s job differs from its warm:false twin", seed, class)
				pairs[class]++
			}
		}
	}
	out.check(pairs["hit"] > 0, "no warm-hit job had a warm:false twin to compare with")
	out.detail["equivalence_pairs"] = pairs

	p50, err := Percentile(lat, 0.5)
	if err != nil {
		return err
	}
	p90, err := Percentile(lat, 0.9)
	if err != nil {
		return err
	}
	tm, err := Summarize(lat)
	if err != nil {
		return err
	}
	out.detail["job_latency_s"] = tm
	out.metrics["job_latency_p50_s"] = p50
	out.metrics["job_latency_p90_s"] = p90
	out.metrics["sim_s_per_wall_s"] = float64(len(lat)*deliveredSimS) / run
	classes := map[string]int{}
	for _, j := range w.jobs {
		classes[j.class]++
	}
	out.detail["job_classes"] = classes
	out.detail["worker_busy_frac"] = w.busyFrac()
	lag, err := Summarize(w.lags)
	if err != nil {
		return err
	}
	out.detail["gen_lag_ms"] = lag
	return nil
}

// servedLayers fills the traced window's per-layer rows.
func servedLayers(w *window, m map[string]float64) error {
	var submit, queue, runAll, fetch []float64
	runBy := map[string][]float64{}
	var sys, run counts = counts{}, counts{}
	var done, rejected float64
	for _, j := range w.jobs {
		if j.code == http.StatusServiceUnavailable {
			rejected++
		}
		submit = append(submit, 1e3*j.submit.Seconds())
		if !j.done() {
			continue
		}
		done++
		queue = append(queue, j.status.Started.Sub(j.status.Created).Seconds())
		runAll = append(runAll, j.runS())
		runBy[j.class] = append(runBy[j.class], j.runS())
		fetch = append(fetch, 1e3*j.fetch.Seconds())
		for k, v := range countsOf(j.obs) {
			sys[k] += v
		}
		for k, v := range j.runner {
			run[k] += v
		}
	}
	pcts := []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"serve.submit_ms_p50", submit, 0.5},
		{"serve.submit_ms_p90", submit, 0.9},
		{"serve.queue_wait_s_p50", queue, 0.5},
		{"serve.queue_wait_s_p90", queue, 0.9},
		{"serve.run_s_p50_hit", runBy["hit"], 0.5},
		{"serve.run_s_p50_miss", runBy["miss"], 0.5},
		{"serve.run_s_p50_cold", runBy["cold"], 0.5},
		{"serve.run_s_p90", runAll, 0.9},
		{"serve.result_ms_p50", fetch, 0.5},
		{"bench.gen_lag_ms_p90", w.lags, 0.9},
	}
	for _, p := range pcts {
		v, err := Percentile(p.xs, p.p)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		m[p.name] = v
	}
	d := w.after.sub(w.before)
	m["serve.worker_busy_frac"] = w.busyFrac()
	m["serve.rejected"] = rejected
	m["serve.jobs_failed_frac"] = 1 - done/float64(len(w.jobs))
	m["serve.cache_hit_ratio"] = ratio(d["snapcache_hits"], d["snapcache_hits"]+d["snapcache_misses"])
	m["serve.cache_evictions"] = d["snapcache_evictions"]
	m["serve.cache_bytes_peak"] = float64(w.bytesPeak)
	m["runner.prefix_runs"] = run["runner_prefix_runs"]
	m["runner.forks_served"] = run["runner_forks_served"]
	m["runner.cold_fallbacks"] = run["runner_cold_fallbacks"]

	// System counts come from each job's last-point snapshot, which covers
	// one whole plan run of jobSimSeconds.
	snapSimS := done * jobSimSeconds
	events := sys["sim_events_processed"]
	perSimS := events / snapSimS
	m["sim.events_per_sim_s"] = perSimS
	delivered := perSimS * done * deliveredSimS
	m["sim.ns_per_event"] = ratio(1e9*sum(runAll), delivered)
	m["netsim.frames_sent_per_sim_s"] = sys["netsim_frames_sent"] / snapSimS
	m["netsim.frames_forwarded_per_sim_s"] = sys["netsim_frames_forwarded"] / snapSimS
	m["netsim.frames_lost"] = sys["netsim_frames_lost"]
	m["netsim.pool_hit_rate"] = poolHitRate(w.hostA, w.hostB)
	m["ptp4l.fta_aggregations_per_sim_s"] = sys["ptp4l_fta_aggregations"] / snapSimS
	m["ptp4l.servo_steps"] = sys["ptp4l_servo_steps"]
	m["ptp4l.holdover_entered"] = sys["ptp4l_holdover_entered"]
	m["fta.discarded_per_aggregation"] = ratio(sys["ptp4l_fta_discarded"], sys["ptp4l_fta_aggregations"])
	m["fta.starved"] = sys["ptp4l_fta_starved"]
	m["hypervisor.monitor_detections"] = sys["hypervisor_monitor_detections"]
	m["hypervisor.takeovers"] = sys["hypervisor_takeovers"]
	m["chaos.actions"] = sys["chaos_actions"]
	runtimeLayer(m, w.hostA, w.hostB, delivered)
	return nil
}
