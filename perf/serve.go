package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"cumulon/internal/core"
	"cumulon/internal/lang"
	"cumulon/internal/plan"
	"cumulon/internal/server"
)

// jobClass is one kind of job in serve_mixed's traffic.
type jobClass int

const (
	clsSmall jobClass = iota // small virtual matmul, one of 12 fixed shapes
	clsFresh                 // small virtual matmul with dimensions never seen before
	clsBig                   // paper-scale virtual GNMF, one of 5 shapes
	clsMat                   // small materialized GNMF, checkpointed every iteration
	clsOpt                   // optimize:true RSVD with one of 3 deadlines
	numClasses
)

var classNames = [numClasses]string{"small_virtual", "fresh_program", "big_virtual", "materialized", "optimize"}

// classPer20 is the mix in class order, 55/5/25/10/5 %, as jobs per deck of
// 20: a client draws its jobs from seeded shuffles of that deck, so every run
// of 20 holds the classes in exact proportion, whatever the seed.
var classPer20 = [numClasses]int{11, 1, 5, 2, 1}

var tenants = [3]string{"alpha", "beta", "gamma"}

// submitBody is the POST /v1/jobs request as this harness writes it.
type submitBody struct {
	Tenant          string  `json:"tenant"`
	Program         string  `json:"program"`
	Tile            int     `json:"tile,omitempty"`
	Density         float64 `json:"density,omitempty"`
	Nodes           int     `json:"nodes,omitempty"`
	Slots           int     `json:"slots,omitempty"`
	Optimize        bool    `json:"optimize,omitempty"`
	DeadlineSec     float64 `json:"deadline_sec,omitempty"`
	Materialize     bool    `json:"materialize,omitempty"`
	Seed            int64   `json:"seed,omitempty"`
	CheckpointEvery int     `json:"checkpoint_every,omitempty"`
}

// key identifies a submission up to the tenant: equal keys must produce
// equal results.
func (b submitBody) key() string {
	b.Tenant = ""
	k, _ := json.Marshal(b) // a struct of scalars always marshals
	return string(k)
}

// request is the same submission for a direct Server.Submit call.
func (b submitBody) request() server.SubmitRequest {
	return server.SubmitRequest{
		Tenant: b.Tenant, Program: b.Program, Tile: b.Tile, Density: b.Density,
		Nodes: b.Nodes, Slots: b.Slots, Optimize: b.Optimize, DeadlineSec: b.DeadlineSec,
		Materialize: b.Materialize, Seed: b.Seed, CheckpointEvery: b.CheckpointEvery,
	}
}

// The responses, decoded into the fields the harness checks.
type jobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		TotalSeconds float64 `json:"total_seconds"`
		Outputs      []struct {
			Name   string `json:"name"`
			SHA256 string `json:"sha256"`
		} `json:"outputs"`
	} `json:"result"`
}

type eventPage struct {
	Events []struct {
		Seq int `json:"seq"`
	} `json:"events"`
	Next int  `json:"next"`
	Done bool `json:"done"`
}

// serveWorkload is cumulond under a saturating closed loop: an in-process
// server behind loopback HTTP with a durable state directory, and clients
// that each submit, follow the event stream to the end, and fetch the status.
type serveWorkload struct {
	sc      scale
	seed    int64
	durable bool

	dir  string
	srv  *server.Server
	http *http.Server
	base string

	fixed [numClasses][]submitBody // the repeatable submissions of each class

	mu sync.Mutex
	// expect maps a materialized submission's key to its output digests
	// from a direct core.Session run; virtualSec maps a virtual
	// submission's key to the makespan its first completion reported.
	expect     map[string]map[string]string
	virtualSec map[string]float64
	byClass    [numClasses][]float64 // client-observed latency, ms

	// clients persist across windows, so a second window continues each
	// client's seeded stream of picks.
	clients []*client
}

func newServeWorkload(sc scale, seed int64) *serveWorkload {
	return &serveWorkload{sc: sc, seed: seed, durable: true}
}

// buildMix derives every repeatable submission from the scale and the seed,
// and forgets what earlier jobs reported.
func (w *serveWorkload) buildMix() {
	w.expect, w.virtualSec = map[string]map[string]string{}, map[string]float64{}
	w.byClass = [numClasses][]float64{}
	sc := w.sc
	rng := rand.New(rand.NewSource(w.seed))
	w.fixed = [numClasses][]submitBody{}
	for k := 0; k < 12; k++ {
		d := sc.smallDim
		m, kk, n := d+d/4*(k%4), d+d/2*(k/4), d
		w.fixed[clsSmall] = append(w.fixed[clsSmall], submitBody{
			Program: matmulSource(m, kk, n), Tile: d / 2, Nodes: 2,
		})
	}
	for k := 0; k < 5; k++ {
		w.fixed[clsBig] = append(w.fixed[clsBig], submitBody{
			Program: gnmfSource(sc.bigM+sc.bigM/10*k, sc.bigN, sc.bigR, sc.bigIters),
			Tile:    2048, Density: 0.01, Nodes: 4,
		})
	}
	for k := 0; k < 3; k++ {
		w.fixed[clsMat] = append(w.fixed[clsMat], submitBody{
			Program: gnmfSource(sc.matM, sc.matN, sc.matR, sc.matIters),
			Tile:    sc.matTile, Density: 0.2, Nodes: 2, Materialize: true,
			Seed: 1 + rng.Int63n(1<<30), CheckpointEvery: 1,
		})
	}
	for _, deadline := range []float64{3600, 7200, 14400} {
		w.fixed[clsOpt] = append(w.fixed[clsOpt], submitBody{
			Program: rsvdSource(sc.rsvdM, sc.rsvdN, sc.rsvdK, sc.rsvdPower),
			Tile:    2048, Optimize: true, DeadlineSec: deadline,
		})
	}
}

// fresh returns a small virtual matmul no earlier job had: client c's n-th.
func (w *serveWorkload) fresh(c, n int) submitBody {
	d := w.sc.smallDim
	return submitBody{Program: matmulSource(d+1+2*n+c, d, d), Tile: d / 2, Nodes: 2}
}

func (w *serveWorkload) setup() error {
	w.buildMix()
	if err := w.start(); err != nil {
		return err
	}
	// Oracle: every materialized submission run directly on a session.
	for _, b := range w.fixed[clsMat] {
		d, err := directDigests(b)
		if err != nil {
			return fmt.Errorf("direct run: %w", err)
		}
		w.expect[b.key()] = d
	}
	// Warm-up: every repeatable submission once, which fills the plan and
	// deployment caches and the optimizer's model cache.
	w.clients = nil
	for i := 0; i < w.sc.serveClients; i++ {
		w.clients = append(w.clients, newClient(w, i))
	}
	cl := newClient(w, -1)
	for cls := range w.fixed {
		for k, b := range w.fixed[cls] {
			b.Tenant = tenants[k%len(tenants)]
			if _, err := cl.runJob(b, sp{}); err != nil {
				return fmt.Errorf("warm-up %s #%d: %w", classNames[cls], k, err)
			}
		}
	}
	return nil
}

// start brings the server up the way cmd/cumulond does.
func (w *serveWorkload) start() error {
	dir, err := os.MkdirTemp("", "perf-serve-")
	if err != nil {
		return err
	}
	w.dir = dir
	cfg := server.Config{Nodes: 16}
	if w.durable {
		cfg.StateDir = dir
	}
	if w.srv, err = server.New(cfg); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.http = &http.Server{Handler: w.srv.Handler()}
	go w.http.Serve(ln) // returns when teardown closes the server
	return nil
}

func (w *serveWorkload) teardown() {
	if w.http != nil {
		w.http.Close()
		w.http = nil
	}
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// directDigests runs a materialized submission the way the server does, but
// straight on a core.Session, and digests its outputs.
func directDigests(b submitBody) (map[string]string, error) {
	prog, err := lang.Parse(b.Program)
	if err != nil {
		return nil, err
	}
	cfg := plan.Config{TileSize: b.Tile, Densities: map[string]float64{}}
	for _, in := range prog.Inputs {
		if in.Sparse {
			cfg.Densities[in.Name] = b.Density
		}
	}
	cl, err := m1Large(b.Nodes, 2) // the server's machine type and default slots
	if err != nil {
		return nil, err
	}
	res, err := core.NewSession(b.Seed).Run(prog, cfg, core.ExecOptions{
		Cluster: cl, Seed: b.Seed, Inputs: core.RandomInputs(prog, cfg, b.Seed),
	})
	if err != nil {
		return nil, err
	}
	return digestAll(res.Outputs), nil
}

// client is one closed-loop connection: its own HTTP transport, its own
// seeded stream of picks.
type client struct {
	w     *serveWorkload
	idx   int
	http  *http.Client
	rng   *rand.Rand
	deck  []jobClass // what is left of the current shuffle of classPer20
	fresh int
	jobs  int
	// lastID is the server's ID of the job runJob submitted last.
	lastID string
}

func newClient(w *serveWorkload, idx int) *client {
	return &client{
		w: w, idx: idx,
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
		rng:  rand.New(rand.NewSource(w.seed*7919 + int64(idx))),
	}
}

// pick draws the next job from the seeded mix.
func (c *client) pick() (jobClass, submitBody) {
	if len(c.deck) == 0 {
		for cls, n := range classPer20 {
			for ; n > 0; n-- {
				c.deck = append(c.deck, jobClass(cls))
			}
		}
		c.rng.Shuffle(len(c.deck), func(i, j int) { c.deck[i], c.deck[j] = c.deck[j], c.deck[i] })
	}
	cls := c.deck[len(c.deck)-1]
	c.deck = c.deck[:len(c.deck)-1]
	var b submitBody
	if cls == clsFresh {
		b = c.w.fresh(c.idx, c.fresh)
		c.fresh++
	} else {
		b = c.w.fixed[cls][c.rng.Intn(len(c.w.fixed[cls]))]
	}
	b.Tenant = tenants[c.rng.Intn(len(tenants))]
	return cls, b
}

// runJob is one op: submit, follow the events to done, fetch the status,
// and check the outcome. It returns the client-observed latency.
func (c *client) runJob(b submitBody, root sp) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	t0 := time.Now()

	s := root.child("http-submit")
	var st jobStatus
	err := c.call(ctx, http.MethodPost, "/v1/jobs", b, http.StatusAccepted, &st)
	s.end()
	if err != nil {
		return 0, err
	}
	c.lastID = st.ID

	s = root.child("events-wait")
	err = c.follow(ctx, st.ID)
	s.end()
	if err != nil {
		return 0, err
	}

	s = root.child("status")
	err = c.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID, nil, http.StatusOK, &st)
	s.end()
	if err != nil {
		return 0, err
	}
	lat := time.Since(t0)
	return lat, c.w.check(b, st)
}

// follow long-polls the job's event stream to its end, checking the cursor
// contract: seq contiguous from 0, next one past the last event.
func (c *client) follow(ctx context.Context, id string) error {
	since := 0
	for {
		var page eventPage
		path := "/v1/jobs/" + id + "/events?wait=5&since=" + strconv.Itoa(since)
		if err := c.call(ctx, http.MethodGet, path, nil, http.StatusOK, &page); err != nil {
			return err
		}
		for _, ev := range page.Events {
			if ev.Seq != since {
				return fmt.Errorf("job %s: event seq %d, want %d", id, ev.Seq, since)
			}
			since++
		}
		if page.Next != since {
			return fmt.Errorf("job %s: next %d after seq %d", id, page.Next, since-1)
		}
		if page.Done {
			return nil
		}
	}
}

func (c *client) call(ctx context.Context, method, path string, body any, wantCode int, into any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.w.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != wantCode {
		return fmt.Errorf("%s %s: HTTP %d: %.200s", method, path, resp.StatusCode, data)
	}
	return json.Unmarshal(data, into)
}

// check validates a terminal status against the oracle for its submission.
func (w *serveWorkload) check(b submitBody, st jobStatus) error {
	if st.State != "succeeded" || st.Result == nil {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	key := b.key()
	w.mu.Lock()
	defer w.mu.Unlock()
	if b.Materialize {
		got := map[string]string{}
		for _, o := range st.Result.Outputs {
			got[o.Name] = o.SHA256
		}
		if err := sameDigests(got, w.expect[key]); err != nil {
			return fmt.Errorf("job %s: %w", st.ID, err)
		}
	}
	if b.Materialize { // a resumed run's clock legitimately differs
		return nil
	}
	first, seen := w.virtualSec[key]
	if !seen {
		w.virtualSec[key] = st.Result.TotalSeconds
	} else if first != st.Result.TotalSeconds {
		return fmt.Errorf("job %s: virtual time %v, identical submission reported %v", st.ID, st.Result.TotalSeconds, first)
	}
	return nil
}

// measure holds the server at saturation for d with the scale's clients:
// each starts its next job the moment the last one is checked. About once a
// second the clients are held back between jobs while the yardstick runs on
// the otherwise idle host (beside them its readings would say more about the
// Go scheduler than about the host); the stretch between two readings is a
// slice. A slice's busy time is the time its jobs took, per client, so the
// wait for the other client to drain is in no rate.
func (w *serveWorkload) measure(d time.Duration, tr *tracer, acc *samples) {
	runtime.GC()
	// stop is one yardstick stop. at and use are taken when the clients
	// have drained, resume and useResume when they are let go again.
	type stop struct {
		at, resume     time.Time
		use, useResume usage
	}
	type finished struct {
		end time.Time
		lat time.Duration
	}
	var (
		gate sync.RWMutex // shared by a client for one job, exclusive for the yardstick
		jobs []finished   // in completion order; guarded by w.mu
	)
	take := func() stop {
		s := stop{at: time.Now(), use: readUsage()}
		acc.slowdown = append(acc.slowdown, hostSlowdown())
		s.resume, s.useResume = time.Now(), readUsage()
		return s
	}
	stops := []stop{take()}
	start := stops[0].resume
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				gate.Lock()
				stops = append(stops, take())
				gate.Unlock()
			}
		}
	}()
	var wg sync.WaitGroup
	for _, c := range w.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for ; time.Since(start) < d; c.jobs++ {
				gate.RLock()
				cls, b := c.pick()
				root := tr.root(c.idx*1_000_000+c.jobs, "root")
				lat, err := c.runJob(b, root)
				root.end()
				w.mu.Lock()
				acc.attempted++
				if err != nil {
					acc.fail(err)
				} else {
					jobs = append(jobs, finished{time.Now(), lat})
					w.byClass[cls] = append(w.byClass[cls], ms(lat))
				}
				w.mu.Unlock()
				gate.RUnlock()
			}
		}(c)
	}
	wg.Wait()
	close(quit)
	<-done
	stops = append(stops, take())

	// A job holds the gate from pick to record, so it lies within one slice.
	k := 0
	for i := 1; i < len(stops); i++ {
		from, to := stops[i-1], stops[i]
		sl := sliceSample{cpu: to.use.cpu - from.useResume.cpu, alloc: to.use.alloc - from.useResume.alloc,
			slow: slowdownOver(from.resume, to.at)}
		for ; k < len(jobs) && !jobs[k].end.After(to.at); k++ {
			j := jobs[k]
			sl.busy += j.lat / time.Duration(len(w.clients))
			sl.n++
			acc.ops = append(acc.ops, opSample{j.lat, slowdownOver(j.end.Add(-j.lat), j.end)})
		}
		acc.slices = append(acc.slices, sl)
	}
}
