package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cumulon/internal/cloud"
	"cumulon/internal/core"
	"cumulon/internal/lang"
	"cumulon/internal/obs"
	"cumulon/internal/plan"
	"cumulon/internal/workloads"
)

// fetchEvents long-polls a job's full event stream from seq 0 in one
// page (the job must be terminal so the page is complete).
func fetchEvents(t *testing.T, base, id string) EventPage {
	t.Helper()
	var page EventPage
	if err := getJSON(http.DefaultClient, base+"/v1/jobs/"+id+"/events?wait=0", &page); err != nil {
		t.Fatalf("events %s: %v", id, err)
	}
	return page
}

func eventTypes(evs []JobEvent) []EventType {
	out := make([]EventType, len(evs))
	for i, ev := range evs {
		out[i] = ev.Type
	}
	return out
}

// TestJobEventStreamLifecycle checks one job's stream is a dense,
// monotonically sequenced lifecycle: queued → admitted → compiling →
// cache verdict → running → engine progress → done.
func TestJobEventStreamLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Nodes: 8})
	st := submit(t, ts.URL, SubmitRequest{Tenant: "a", Program: gnmfSource(), Tile: 4, Nodes: 4, Seed: 11})
	fin := await(t, ts.URL, st.ID)
	if fin.State != StateSucceeded {
		t.Fatalf("job failed: %s", fin.Error)
	}
	page := fetchEvents(t, ts.URL, st.ID)
	if !page.Done {
		t.Fatal("terminal job's stream not done")
	}
	for i, ev := range page.Events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d (stream not dense)", i, ev.Seq)
		}
	}
	types := eventTypes(page.Events)
	if types[0] != EvQueued {
		t.Fatalf("first event %s, want queued", types[0])
	}
	if last := types[len(types)-1]; last != EvDone {
		t.Fatalf("last event %s, want done", last)
	}
	wantOrder := []EventType{EvQueued, EvAdmitted, EvCompiling, EvPlanCacheMiss, EvRunning, EvJobStart, EvPhaseStart, EvDone}
	i := 0
	for _, ty := range types {
		if i < len(wantOrder) && ty == wantOrder[i] {
			i++
		}
	}
	if i != len(wantOrder) {
		t.Fatalf("lifecycle order %v missing from stream %v (matched %d)", wantOrder, types, i)
	}
	done := page.Events[len(page.Events)-1]
	if done.VirtualSec <= 0 || done.CostDollars <= 0 {
		t.Fatalf("done event lacks makespan/cost: %+v", done)
	}
}

// TestEventStreamResumeSince consumes the stream one event per request
// via ?since= and checks the reassembly equals the one-shot fetch: the
// cursor never drops or duplicates.
func TestEventStreamResumeSince(t *testing.T) {
	_, ts := newTestServer(t, Config{Nodes: 8})
	st := submit(t, ts.URL, SubmitRequest{Tenant: "a", Program: gnmfSource(), Tile: 4, Nodes: 4, Seed: 11})
	await(t, ts.URL, st.ID)
	full := fetchEvents(t, ts.URL, st.ID)

	var got []JobEvent
	since := 0
	for {
		var page EventPage
		url := fmt.Sprintf("%s/v1/jobs/%s/events?wait=0&since=%d", ts.URL, st.ID, since)
		if err := getJSON(http.DefaultClient, url, &page); err != nil {
			t.Fatal(err)
		}
		if len(page.Events) == 0 {
			if !page.Done {
				t.Fatal("empty page on a terminal job without done")
			}
			break
		}
		// Take only the first event, then resume strictly after it — the
		// worst-case consumer.
		got = append(got, page.Events[0])
		since = page.Events[0].Seq + 1
		if page.Done && since >= page.Next {
			break
		}
	}
	a, _ := json.Marshal(full.Events)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatalf("resume-from-since reassembly differs:\nfull: %s\ngot:  %s", a, b)
	}
}

// TestEventStreamSSEMatchesLongPoll: the SSE transport must deliver the
// byte-identical event JSON the long-poll transport serves.
func TestEventStreamSSEMatchesLongPoll(t *testing.T) {
	_, ts := newTestServer(t, Config{Nodes: 8})
	st := submit(t, ts.URL, SubmitRequest{Tenant: "a", Program: gnmfSource(), Tile: 4, Nodes: 4, Seed: 11})
	await(t, ts.URL, st.ID)
	full := fetchEvents(t, ts.URL, st.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events?stream=sse")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	var sseData []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if d, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			sseData = append(sseData, d)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(sseData) != len(full.Events) {
		t.Fatalf("SSE delivered %d events, long-poll %d", len(sseData), len(full.Events))
	}
	for i, ev := range full.Events {
		want, _ := json.Marshal(ev)
		if sseData[i] != string(want) {
			t.Fatalf("event %d differs:\nSSE:       %s\nlong-poll: %s", i, sseData[i], want)
		}
	}
}

// TestEventStreamDeterministic: two fresh servers with the same config
// and the same submission produce byte-identical event streams. On each, a
// resubmission runs warm — the cached plan's memo serves every task's trace
// — and its stream is the cold job's byte for byte but for the cache
// verdict.
func TestEventStreamDeterministic(t *testing.T) {
	req := SubmitRequest{Tenant: "a", Program: gnmfSource(), Tile: 4, Nodes: 4, Seed: 11,
		Chaos: "seed=7,kill=1@3.5", MaxRetries: 8}
	streams := make([][]byte, 2)
	for i := range streams {
		_, ts := newTestServer(t, Config{Nodes: 8})
		_, streams[i] = runJob(t, ts.URL, req)
		filled := traceBytes(t, ts.URL)
		_, warm := runJob(t, ts.URL, req)
		if got := traceBytes(t, ts.URL); got != filled || filled == 0 {
			t.Fatalf("run %d: the warm job moved the memo from %d to %d bytes", i, filled, got)
		}
		verdict := []byte(`"type":"` + EvPlanCacheHit + `"`)
		if bytes.Count(warm, verdict) != 1 {
			t.Fatalf("run %d: the resubmission was not a plan-cache hit", i)
		}
		warm = bytes.Replace(warm, verdict, []byte(`"type":"`+EvPlanCacheMiss+`"`), 1)
		if !bytes.Equal(warm, streams[i]) {
			t.Fatalf("run %d: the warm job's event stream differs from the cold one's:\ncold: %s\nwarm: %s", i, streams[i], warm)
		}
	}
	if !bytes.Equal(streams[0], streams[1]) {
		t.Fatalf("event streams differ across identical runs:\nA: %s\nB: %s", streams[0], streams[1])
	}
	// Chaos runs must surface recovery in the stream.
	var evs []JobEvent
	if err := json.Unmarshal(streams[0], &evs); err != nil {
		t.Fatal(err)
	}
	seen := map[EventType]bool{}
	for _, ev := range evs {
		seen[ev.Type] = true
	}
	if !seen[EvCrash] {
		t.Fatalf("chaos run produced no crash event: %v", eventTypes(evs))
	}
}

// TestEventStreamTracedOrNot: an untraced job records no task spans, yet
// streams exactly the events a traced one does — job and phase starts,
// retries and crashes are the engine's structural calls, which go to any
// recorder but obs.Nop().
func TestEventStreamTracedOrNot(t *testing.T) {
	req := SubmitRequest{Tenant: "a", Program: gnmfSource(), Tile: 4, Nodes: 4, Seed: 11,
		Chaos: "seed=7,kill=1@3.5,taskfault=0.1", MaxRetries: 8}
	streams := make([][]byte, 2)
	for i, trace := range []bool{false, true} {
		req.Trace = trace
		_, ts := newTestServer(t, Config{Nodes: 8})
		_, streams[i] = runJob(t, ts.URL, req)
	}
	if !bytes.Equal(streams[0], streams[1]) {
		t.Fatalf("untraced and traced streams differ:\nuntraced: %s\ntraced:   %s", streams[0], streams[1])
	}
	for _, ty := range []EventType{EvJobStart, EvPhaseStart, EvRetry, EvCrash} {
		if !bytes.Contains(streams[0], []byte(`"type":"`+ty+`"`)) {
			t.Fatalf("untraced stream has no %s event: %s", ty, streams[0])
		}
	}
}

// TestEventBufferEviction410: a tiny ring buffer evicts the stream
// head; resuming below the retained window is 410 Gone with a usable
// resume cursor.
func TestEventBufferEviction410(t *testing.T) {
	_, ts := newTestServer(t, Config{Nodes: 8, EventBuffer: 3})
	st := submit(t, ts.URL, SubmitRequest{Tenant: "a", Program: gnmfSource(), Tile: 4, Nodes: 4, Seed: 11})
	await(t, ts.URL, st.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events?wait=0")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("since=0 on an overflowed stream: got %d (%s), want 410", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "since=") {
		t.Fatalf("410 body lacks a resume hint: %s", body)
	}
	// The retained tail is still consumable.
	var page EventPage
	var resume int
	if _, err := fmt.Sscanf(e.Error[strings.LastIndex(e.Error, "?since=")+len("?since="):], "%d", &resume); err != nil {
		t.Fatalf("cannot parse resume cursor from %q", e.Error)
	}
	url := fmt.Sprintf("%s/v1/jobs/%s/events?wait=0&since=%d", ts.URL, st.ID, resume)
	if err := getJSON(http.DefaultClient, url, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 3 || !page.Done {
		t.Fatalf("retained tail: %d events, done=%v, want 3 and done", len(page.Events), page.Done)
	}
	if last := page.Events[len(page.Events)-1]; last.Type != EvDone {
		t.Fatalf("retained tail must end with done, got %s", last.Type)
	}
}

// TestTraceArtifactByteIdentity: the retained Chrome trace of a server
// job equals the trace a direct core.Session run (the `cumulon -trace`
// path) writes for the same program/config/seed, byte for byte.
func TestTraceArtifactByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{Nodes: 8, Seed: 42})
	req := SubmitRequest{Tenant: "a", Program: gnmfSource(), Tile: 4, Nodes: 4, Slots: 2, Seed: 11,
		Trace: true, Critpath: true, Metrics: true}
	st := submit(t, ts.URL, req)
	fin := await(t, ts.URL, st.ID)
	if fin.State != StateSucceeded {
		t.Fatalf("job failed: %s", fin.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	serverTrace, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: %d (%s)", resp.StatusCode, serverTrace)
	}

	// The CLI path: compile + AutoSplit + execute with a Trace recorder,
	// using the same defaults Submit applies (density 0.05).
	sess := core.NewSession(42)
	prog, err := lang.Parse(req.Program)
	if err != nil {
		t.Fatal(err)
	}
	req.Density = 0.05
	cfg := plan.ConfigFor(prog, req.Tile, req.Density)
	mt, err := cloud.TypeByName("m1.large")
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := cloud.NewCluster(mt, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	if _, err := sess.Run(prog, cfg, core.ExecOptions{
		Cluster: cluster, Seed: 11, Recorder: tr,
	}); err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := tr.WriteChrome(&direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serverTrace, direct.Bytes()) {
		t.Fatalf("server trace (%d bytes) != direct trace (%d bytes)", len(serverTrace), direct.Len())
	}

	// The other opted-in artifacts exist and are non-empty.
	for _, kind := range []string{"critpath", "metrics"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/" + kind)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("%s artifact: %d, %d bytes", kind, resp.StatusCode, len(body))
		}
	}
	// Explain was not opted in: 404.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/explain")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("explain without opt-in: %d, want 404", resp.StatusCode)
	}
}

// TestArtifactRetentionEviction: with ArtifactHistory=1 the first
// job's artifacts are dropped when the second finishes.
func TestArtifactRetentionEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{Nodes: 8, ArtifactHistory: 1})
	first := submit(t, ts.URL, SubmitRequest{Tenant: "a", Program: gnmfSource(), Tile: 4, Nodes: 4, Seed: 11, Trace: true})
	await(t, ts.URL, first.ID)
	second := submit(t, ts.URL, SubmitRequest{Tenant: "a", Program: gnmfSource(), Tile: 4, Nodes: 4, Seed: 12, Trace: true})
	await(t, ts.URL, second.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + first.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted artifact: %d, want 410", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + second.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retained artifact: %d, want 200", resp.StatusCode)
	}
}

// TestExplainArtifact: explain requires optimize, and an optimized
// explain submission retains a non-empty report.
func TestExplainArtifact(t *testing.T) {
	_, ts := newTestServer(t, Config{Nodes: 8})
	var st JobStatus
	err := postJSON(http.DefaultClient, ts.URL+"/v1/jobs", SubmitRequest{
		Tenant: "a", Program: gnmfSource(), Tile: 4, Explain: true,
	}, &st)
	if err == nil || !strings.Contains(err.Error(), "explain requires optimize") {
		t.Fatalf("explain without optimize: %v", err)
	}

	st = submit(t, ts.URL, SubmitRequest{
		Tenant: "a", Program: gnmfSource(), Tile: 4,
		Optimize: true, DeadlineSec: 3600, MaxNodes: 4, Explain: true,
	})
	fin := await(t, ts.URL, st.ID)
	if fin.State != StateSucceeded {
		t.Fatalf("job failed: %s", fin.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/explain")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain fetch: %d (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "winner") && !strings.Contains(string(body), "candidate") {
		t.Fatalf("explain report looks empty:\n%s", body)
	}
}

// TestJobHistoryPruneAndPagination: old terminal jobs are pruned at the
// retention bound and the paginated listing walks what remains.
func TestJobHistoryPruneAndPagination(t *testing.T) {
	s, ts := newTestServer(t, Config{Nodes: 8, JobHistory: 3})
	var last string
	for i := 0; i < 6; i++ {
		st := submit(t, ts.URL, SubmitRequest{Tenant: "a", Program: gnmfSource(), Tile: 4, Nodes: 4, Seed: int64(20 + i)})
		await(t, ts.URL, st.ID)
		last = st.ID
	}
	s.mu.Lock()
	stored, pruned := len(s.store.order), s.store.pruned
	s.mu.Unlock()
	if stored != 3 || pruned != 3 {
		t.Fatalf("store has %d jobs (pruned %d), want 3 retained / 3 pruned", stored, pruned)
	}

	// A pruned job is gone from the API.
	resp, err := http.Get(ts.URL + "/v1/jobs/j-000001")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pruned job status: %d, want 404", resp.StatusCode)
	}

	// Walk pages of 2.
	var all []JobStatus
	after := ""
	for pages := 0; ; pages++ {
		if pages > 5 {
			t.Fatal("pagination does not terminate")
		}
		var page JobPage
		url := ts.URL + "/v1/jobs?limit=2"
		if after != "" {
			url += "&after=" + after
		}
		if err := getJSON(http.DefaultClient, url, &page); err != nil {
			t.Fatal(err)
		}
		all = append(all, page.Jobs...)
		if page.NextAfter == "" {
			break
		}
		after = page.NextAfter
	}
	if len(all) != 3 {
		t.Fatalf("pagination returned %d jobs, want 3", len(all))
	}
	if all[len(all)-1].ID != last {
		t.Fatalf("last page ends at %s, want %s", all[len(all)-1].ID, last)
	}
	// The pruned-jobs counter is exported.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "cumulond_jobs_pruned_total 3") {
		t.Fatal("metrics lack cumulond_jobs_pruned_total 3")
	}
}

// TestPlanCacheLRUBound: a bound of 2 evicts the least-recently-used
// entry and counts it.
func TestPlanCacheLRUBound(t *testing.T) {
	c := NewPlanCache(2)
	cfg := testCfg()
	srcs := []string{gnmfSource(), gnmfSource() + "\n# v2", gnmfSource() + "\n# v3"}
	for _, src := range srcs {
		if _, _, _, err := c.Compile(src, cfg); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("after 3 compiles with bound 2: entries %d, evictions %d", st.Entries, st.Evictions)
	}
	// The oldest entry (srcs[0]) was evicted: recompiling misses.
	before := c.Stats().PlanMisses
	if _, _, _, err := c.Compile(srcs[0], cfg); err != nil {
		t.Fatal(err)
	}
	if c.Stats().PlanMisses != before+1 {
		t.Fatal("evicted entry did not miss on recompile")
	}
	// srcs[2] is still cached: hits.
	beforeHits := c.Stats().PlanHits
	if _, _, _, err := c.Compile(srcs[2], cfg); err != nil {
		t.Fatal(err)
	}
	if c.Stats().PlanHits != beforeHits+1 {
		t.Fatal("recently used entry was evicted")
	}
}

// TestMetricsHaveTenantHistograms: /metrics exposes per-tenant latency
// histogram series after a run, and /debug/dash renders.
func TestMetricsHaveTenantHistograms(t *testing.T) {
	_, ts := newTestServer(t, Config{Nodes: 8})
	st := submit(t, ts.URL, SubmitRequest{Tenant: "acme", Program: gnmfSource(), Tile: 4, Nodes: 4, Seed: 11})
	await(t, ts.URL, st.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`cumulond_e2e_seconds_bucket{tenant="acme",le="`,
		`cumulond_run_seconds_count{tenant="acme"}`,
		`cumulond_queue_wait_seconds_bucket{tenant="acme",le="`,
		`cumulond_compile_seconds_sum{tenant="acme"}`,
		`cumulond_fair_share_debt{tenant="acme"}`,
		`cumulond_plan_cache_evictions_total`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}

	dresp, err := http.Get(ts.URL + "/debug/dash")
	if err != nil {
		t.Fatal(err)
	}
	dbody, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("dash: %d", dresp.StatusCode)
	}
	for _, want := range []string{"cumulond", "acme", "recent jobs", "e2e p95"} {
		if !strings.Contains(string(dbody), want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
	// pprof is off by default.
	presp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode == http.StatusOK {
		t.Fatal("pprof mounted without Config.Pprof")
	}
}

// TestPlanCacheVerdictIsPerJob: a job's plan-cache event must report its
// own compile, not whatever another job did to the cache meanwhile. N
// clients each submit fresh programs nobody else submits and resubmit
// each once; every first submission's stream must carry exactly one miss
// and no hit, every resubmission's exactly one hit and no miss — under
// -race in CI, with the clients' compiles interleaving.
func TestPlanCacheVerdictIsPerJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Nodes: 16})
	const clients, rounds = 6, 5
	verdicts := func(id string) (hits, misses int, err error) {
		for {
			var st JobStatus
			if err := getJSON(http.DefaultClient, ts.URL+"/v1/jobs/"+id, &st); err != nil {
				return 0, 0, err
			}
			if st.State.Terminal() {
				if st.State != StateSucceeded {
					return 0, 0, fmt.Errorf("job %s: %s (%s)", id, st.State, st.Error)
				}
				break
			}
			time.Sleep(time.Millisecond)
		}
		var page EventPage
		if err := getJSON(http.DefaultClient, ts.URL+"/v1/jobs/"+id+"/events?wait=0", &page); err != nil {
			return 0, 0, err
		}
		for _, ev := range page.Events {
			switch ev.Type {
			case EvPlanCacheHit:
				hits++
			case EvPlanCacheMiss:
				misses++
			}
		}
		return hits, misses, nil
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Dimensions unique to (client, round): a program no
				// other submission shares.
				src := workloads.GNMF(24+c, 18+r, 3, 6, 0.4).Prog.String()
				for attempt, want := range []struct{ hits, misses int }{{0, 1}, {1, 0}} {
					var st JobStatus
					req := SubmitRequest{Tenant: "t", Program: src, Tile: 4, Nodes: 2}
					if err := postJSON(http.DefaultClient, ts.URL+"/v1/jobs", req, &st); err != nil {
						t.Errorf("client %d round %d: submit: %v", c, r, err)
						return
					}
					hits, misses, err := verdicts(st.ID)
					if err != nil {
						t.Errorf("client %d round %d: %v", c, r, err)
						return
					}
					if hits != want.hits || misses != want.misses {
						t.Errorf("client %d round %d submission %d: %d plan-cache-hit and %d plan-cache-miss events, want %d and %d",
							c, r, attempt, hits, misses, want.hits, want.misses)
					}
				}
			}
		}(c)
	}
	wg.Wait()
}
