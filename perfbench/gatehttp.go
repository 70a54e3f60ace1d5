package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"extsched/gate"
)

// gate-http: a closed loop of NumCPU clients, each on its own keep-alive
// HTTP/1.1 connection, through gate.MiddlewareClassify on loopback. The
// gate's limit is one below the client count, so requests queue and
// Release hands slots off. WFQ shares the gate between two tenants that
// each request names in a header.
const (
	tenantHeader = "X-Tenant"
	spanHeader   = "X-Span"
	// gateWarmRequests is how many requests each client sends to warm
	// its connection before timing starts; they count in setup_s.
	gateWarmRequests = 200
	// gateSetups is how many times a run sets the server up; setup_s is
	// their median and the last one serves the measured requests.
	gateSetups = 7
	// gateWindow splits the measured loop into windows; the rate and
	// latency metrics are medians over the whole windows, so one stall
	// moves one window and not the run's figure.
	gateWindow = time.Second / 2
	// The handler's work unit: FNV-1a over a seed-derived block.
	workBytes  = 1024
	workRounds = 24
	// workSizeHint is the size hint WFQ charges each request.
	workSizeHint = 1e-5
)

var tenantWeights = map[gate.Class]float64{0: 1, 1: 3}

// workUnit is the handler's fixed CPU work.
func workUnit(block []byte) uint64 {
	h := uint64(14695981039346656037)
	for r := 0; r < workRounds; r++ {
		for _, b := range block {
			h ^= uint64(b)
			h *= 1099511628211
		}
	}
	return h
}

// responseBody is the body every request must return for block.
func responseBody(block []byte) []byte {
	return strconv.AppendUint([]byte("ok "), workUnit(block), 16)
}

// reqSpan holds one traced request's timestamps, in nanoseconds since
// the store's epoch. The client goroutine writes the client times; the
// server's handler goroutines write the rest.
type reqSpan struct {
	client0, client1               int64
	outer0, inner0, inner1, outer1 atomic.Int64
}

const (
	spanChunk  = 1 << 14
	spanChunks = 1 << 10
)

// spanStore hands out reqSpans by request index in lazily allocated
// chunks, so clients and handlers can address a request's record
// without locking.
type spanStore struct {
	epoch  time.Time
	next   atomic.Int64
	chunks [spanChunks]atomic.Pointer[[spanChunk]reqSpan]
}

func (s *spanStore) now() int64 { return int64(time.Since(s.epoch)) }

// at returns request i's record, or nil past the store's capacity.
func (s *spanStore) at(i int64) *reqSpan {
	c := i / spanChunk
	if i < 0 || c >= spanChunks {
		return nil
	}
	p := s.chunks[c].Load()
	if p == nil {
		s.chunks[c].CompareAndSwap(nil, new([spanChunk]reqSpan))
		p = s.chunks[c].Load()
	}
	return &p[i%spanChunk]
}

// fromHeader returns the record a request's span header names.
func (s *spanStore) fromHeader(r *http.Request) *reqSpan {
	i, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	if err != nil {
		return nil
	}
	return s.at(i)
}

// gateServer is one set-up of the gate behind a loopback server, with
// its clients' connections warm.
type gateServer struct {
	g       *gate.Gate
	srv     *http.Server
	served  chan error
	t0      time.Time // start of the measured loop; zero while warming
	clients []*gateClient
	body    []byte
	spans   *spanStore // nil when untraced
}

type gateClient struct {
	tr      *http.Transport
	hc      *http.Client
	reqs    [2]*http.Request // one per tenant
	rng     *rand.Rand
	buf     bytes.Buffer
	rts     samples // round-trip nanoseconds
	marks   []int   // marks[k] is the index in rts where window k starts
	ok, bad int64
	spans   []int64 // traced: the store indexes this client used
}

// startGate builds the gate, starts the server and warms one connection
// per client. Handler spans are recorded when spans is non-nil.
func startGate(seed uint64, clients int, spans *spanStore) (*gateServer, error) {
	rng := rand.New(rand.NewPCG(seed, 0x6a7e))
	block := make([]byte, workBytes)
	for i := range block {
		block[i] = byte(rng.Uint32())
	}
	g, err := gate.New(gate.Config{Limit: max(1, clients-1), Policy: gate.WFQ, WFQWeights: tenantWeights})
	if err != nil {
		return nil, err
	}
	for c, name := range []string{"a", "b"} {
		if _, err := g.RegisterClass(name, tenantWeights[gate.Class(c)], 0); err != nil {
			return nil, err
		}
	}
	classify := func(r *http.Request) gate.Request {
		c := gate.Class(0)
		if r.Header.Get(tenantHeader) == "b" {
			c = 1
		}
		return gate.Request{Class: c, SizeHint: workSizeHint}
	}
	work := func(w http.ResponseWriter) {
		var buf [32]byte
		b := append(buf[:0], "ok "...)
		w.Write(strconv.AppendUint(b, workUnit(block), 16)) // a failed write shows as a bad response
	}
	var h http.Handler
	if spans == nil {
		h = gate.MiddlewareClassify(g, classify, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { work(w) }))
	} else {
		inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s := spans.fromHeader(r)
			if s != nil {
				s.inner0.Store(spans.now())
			}
			work(w)
			if s != nil {
				s.inner1.Store(spans.now())
			}
		})
		mw := gate.MiddlewareClassify(g, classify, inner)
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s := spans.fromHeader(r)
			if s != nil {
				s.outer0.Store(spans.now())
			}
			mw.ServeHTTP(w, r)
			if s != nil {
				s.outer1.Store(spans.now())
			}
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	gs := &gateServer{
		g:      g,
		srv:    &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		body:   responseBody(block),
		spans:  spans,
	}
	go func() { gs.served <- gs.srv.Serve(ln) }()
	url := "http://" + ln.Addr().String() + "/"
	for i := 0; i < clients; i++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		c := &gateClient{
			tr: tr, hc: &http.Client{Transport: tr},
			rng: rand.New(rand.NewPCG(seed, uint64(i))),
		}
		for t, name := range []string{"a", "b"} {
			req, err := http.NewRequest(http.MethodGet, url, nil)
			if err != nil {
				gs.stop()
				return nil, err
			}
			req.Header.Set(tenantHeader, name)
			c.reqs[t] = req
		}
		gs.clients = append(gs.clients, c)
	}
	// Warm every connection; the warm-up requests are checked but not
	// timed, and setup ends when the last client is warm.
	gs.loop(time.Time{}, gateWarmRequests)
	for _, c := range gs.clients {
		if c.bad > 0 || c.ok != gateWarmRequests {
			gs.stop()
			return nil, fmt.Errorf("gate-http: %d of %d warm-up requests failed", c.bad, gateWarmRequests)
		}
		c.ok, c.rts, c.spans = 0, samples{}, c.spans[:0]
	}
	return gs, nil
}

// loop runs every client concurrently until deadline, or for n requests
// each when deadline is zero, and waits for them.
func (gs *gateServer) loop(deadline time.Time, n int) {
	more := func(i int) bool { return i < n }
	if !deadline.IsZero() {
		more = func(int) bool { return time.Now().Before(deadline) }
	}
	var wg sync.WaitGroup
	for _, c := range gs.clients {
		wg.Add(1)
		go func(c *gateClient) {
			defer wg.Done()
			for i := 0; more(i); i++ {
				gs.request(c)
			}
		}(c)
	}
	wg.Wait()
}

// request sends one request for a seeded choice of tenant and checks
// the status and body.
func (gs *gateServer) request(c *gateClient) {
	req := c.reqs[c.rng.IntN(2)]
	var s *reqSpan
	if gs.spans != nil {
		i := gs.spans.next.Add(1) - 1
		if s = gs.spans.at(i); s != nil {
			req.Header.Set(spanHeader, strconv.FormatInt(i, 10))
			c.spans = append(c.spans, i)
			s.client0 = gs.spans.now()
		}
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	if !gs.t0.IsZero() {
		for w := int(end.Sub(gs.t0) / gateWindow); len(c.marks) <= w; {
			c.marks = append(c.marks, c.rts.n)
		}
	}
	c.rts.add(int64(end.Sub(start)))
	if s != nil {
		s.client1 = gs.spans.now()
	}
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(c.buf.Bytes(), gs.body) {
		c.bad++
		return
	}
	c.ok++
}

// stop shuts the server down and waits for it and its connections.
func (gs *gateServer) stop() error {
	for _, c := range gs.clients {
		c.tr.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := gs.srv.Shutdown(ctx)
	if serr := <-gs.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// samples is an append-only list stored in fixed-size chunks, so a
// client's memory grows by whole chunks and never by copying.
type samples struct {
	chunks [][]int64
	n      int
}

const sampleChunk = 1 << 12

func (s *samples) add(v int64) {
	if s.n%sampleChunk == 0 {
		s.chunks = append(s.chunks, make([]int64, sampleChunk))
	}
	s.chunks[s.n/sampleChunk][s.n%sampleChunk] = v
	s.n++
}

func (s *samples) at(i int) int64 { return s.chunks[i/sampleChunk][i%sampleChunk] }

// window is one gateWindow of the measured loop.
type window struct {
	rate, p50, p99 float64 // requests per second, round trip in µs
	n              int
}

// measure runs the closed loop for d and returns the figures of each
// whole window, the good and bad counts and the wall time.
func (gs *gateServer) measure(d time.Duration) (ws []window, ok, bad int64, wall time.Duration) {
	gs.t0 = time.Now()
	gs.loop(gs.t0.Add(d), 0)
	wall = time.Since(gs.t0)
	var xs []float64
	for k := 0; time.Duration(k+1)*gateWindow <= wall; k++ {
		xs = xs[:0]
		for _, c := range gs.clients {
			if k >= len(c.marks) {
				continue
			}
			end := c.rts.n
			if k+1 < len(c.marks) {
				end = c.marks[k+1]
			}
			for i := c.marks[k]; i < end; i++ {
				xs = append(xs, float64(c.rts.at(i))/1e3)
			}
		}
		ws = append(ws, window{rate: float64(len(xs)) / gateWindow.Seconds(), p50: percentile(xs, 50), p99: percentile(xs, 99), n: len(xs)})
	}
	for _, c := range gs.clients {
		ok += c.ok
		bad += c.bad
	}
	return ws, ok, bad, wall
}

func gateHTTP(cfg config) (report, error) {
	seed := cfg.simSeed()
	clients := runtime.NumCPU()
	fmt.Printf("gate-http: %d closed-loop clients, one keep-alive connection each, gate limit %d\n", clients, max(1, clients-1))
	var (
		r      = report{metrics: map[string]float64{}}
		setups []float64
		gs     *gateServer
	)
	for i := 0; i < gateSetups; i++ {
		start := time.Now()
		s, err := startGate(seed, clients, nil)
		if err != nil {
			return r, err
		}
		setups = append(setups, secs(time.Since(start)))
		if i < gateSetups-1 {
			if err := s.stop(); err != nil {
				return r, err
			}
			continue
		}
		gs = s
	}
	r.attempted += int64(gateSetups * clients * gateWarmRequests)
	if want, ok := cfg.refs.lookup("gate-http", cfg.seed); ok && cfg.save == "" {
		if mismatches([]runFP{{Name: "body", Body: string(gs.body)}}, want) > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: gate-http seed %d: response body differs from its reference\n", cfg.seed)
			r.failed++
		}
	}
	measureFor := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		measureFor /= 2
	}
	ws, ok, bad, wall := gs.measure(measureFor)
	if err := gs.stop(); err != nil {
		return r, err
	}
	r.attempted += ok + bad
	r.failed += bad
	fmt.Printf("requests %d over %.3f s; %d whole windows of %v, each:\n", ok+bad, secs(wall), len(ws), gateWindow)
	for _, w := range ws {
		fmt.Printf("  window rt samples %d, %.6g req/s, p50 %.6g us, p99 %.6g us\n", w.n, w.rate, w.p50, w.p99)
	}
	if len(ws) == 0 {
		return r, fmt.Errorf("gate-http: %v is shorter than one %v window", measureFor, gateWindow)
	}
	if ok == 0 {
		return r, errors.New("gate-http: no request succeeded")
	}
	var rates, p50s, p99s []float64
	for _, w := range ws {
		rates, p50s, p99s = append(rates, w.rate), append(p50s, w.p50), append(p99s, w.p99)
	}
	// rt_p99_us is reported by traced runs, from this untraced loop.
	r.metrics["rt_p99_us"] = median(p99s)
	fmt.Printf("rt_p99_us %.6g us (median over windows)\n", r.metrics["rt_p99_us"])
	if !cfg.trace {
		r.metrics["txn_per_s"] = median(rates)
		r.metrics["rt_p50_us"] = median(p50s)
		r.metrics["setup_s"] = median(setups)
	} else if err := gateTraced(cfg, seed, clients, &r, float64(ok+bad)/secs(wall), measureFor); err != nil {
		return r, err
	}
	if cfg.save != "" {
		if err := saveRef(cfg.save, "gate-http", cfg.seed, []runFP{{Name: "body", Body: string(gs.body)}}); err != nil {
			return r, err
		}
		fmt.Printf("reference for gate-http seed %d written to %s\n", cfg.seed, cfg.save)
	}
	return r, nil
}

// gateTraced runs the second half of a traced run on a fresh set-up
// whose handlers record spans, and reports the span metrics.
func gateTraced(cfg config, seed uint64, clients int, r *report, plainRate float64, d time.Duration) error {
	store := &spanStore{epoch: time.Now()}
	gs, err := startGate(seed, clients, store)
	if err != nil {
		return err
	}
	r.attempted += int64(clients * gateWarmRequests)
	prof, err := startProfile(cfg, "gate-http")
	if err != nil {
		gs.stop()
		return err
	}
	_, ok, bad, wall := gs.measure(d)
	perr := prof.stop(r.metrics)
	wait := gs.g.Stats().MeanWait
	if err := gs.stop(); err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	r.attempted += ok + bad
	r.failed += bad
	tr := newTracer()
	var admit, release, handler, overhead []float64
	for _, c := range gs.clients {
		for _, i := range c.spans {
			s := store.at(i)
			o0, i0, i1, o1 := s.outer0.Load(), s.inner0.Load(), s.inner1.Load(), s.outer1.Load()
			root := tr.add("client", -1, s.client0, s.client1)
			outer := tr.add("server", root, o0, o1)
			tr.add("gate.admit", outer, o0, i0)
			tr.add("handler", outer, i0, i1)
			tr.add("gate.release", outer, i1, o1)
			admit = append(admit, float64(i0-o0)/1e3)
			release = append(release, float64(o1-i1)/1e3)
			handler = append(handler, float64(i1-i0)/1e3)
			overhead = append(overhead, float64((s.client1-s.client0)-(o1-o0))/1e3)
		}
	}
	if err := writeSpans(cfg, "gate-http", tr); err != nil {
		return err
	}
	fmt.Printf("span samples %d\n", len(admit))
	m := r.metrics
	m["gate.admit_us_p50"] = percentile(admit, 50)
	m["gate.admit_us_p99"] = percentile(admit, 99)
	m["gate.release_us_p50"] = percentile(release, 50)
	m["gate.wait_us_mean"] = wait * 1e6
	m["http.overhead_us_p50"] = percentile(overhead, 50)
	m["handler.us_p50"] = percentile(handler, 50)
	tracedRate := float64(ok+bad) / secs(wall)
	m["trace.overhead_s"] = 1/tracedRate - 1/plainRate // wall seconds per request
	m["trace.overhead_frac"] = plainRate/tracedRate - 1
	for _, k := range []string{"workload.prewarm_s", "dbms.new_s", "runner.run_s", "sim.events",
		"sim.ns_per_event", "runner.alloc_b_per_txn", "bufferpool.hit_ratio", "bufferpool.misses",
		"lockmgr.waits", "lockmgr.deadlocks", "dbms.useful_ratio", "sim.events_per_txn",
		"core.ext_wait_s", "cluster.routed", "cluster.resubmitted", "runner.snapshots"} {
		m[k] = 0 // no simulator layer runs in the live gate
	}
	return nil
}
