package gate

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMiddlewareGatesRequests(t *testing.T) {
	g, err := New(Config{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	var inflight, peak atomic.Int64
	h := Middleware(g, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		inflight.Add(-1)
		io.WriteString(w, "ok")
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	var wg sync.WaitGroup
	var okCount atomic.Int64
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				okCount.Add(1)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Errorf("handler concurrency %d exceeded gate limit 2", p)
	}
	if okCount.Load() != 12 {
		t.Errorf("ok responses = %d, want 12 (no admission control configured)", okCount.Load())
	}
}

func TestMiddlewareShedsWith503(t *testing.T) {
	g, err := New(Config{Limit: 1, QueueLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	h := Middleware(g, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		io.WriteString(w, "ok")
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	// Request 1 occupies the slot; request 2 fills the queue.
	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Get(srv.URL)
			if err != nil {
				t.Error(err)
				done <- 0
				return
			}
			resp.Body.Close()
			done <- resp.StatusCode
		}()
		// Wait until the request is admitted or queued before the next.
		for {
			s := g.Stats()
			if s.Inflight+s.Queued > i {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Request 3 must be shed.
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("overload status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After header")
	}
	close(release)
	if a, b := <-done, <-done; a != http.StatusOK || b != http.StatusOK {
		t.Errorf("admitted requests got %d, %d; want 200, 200", a, b)
	}
	if got := g.Stats().Dropped; got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
}

func TestMiddlewareCountsServerErrors(t *testing.T) {
	g, err := New(Config{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := Middleware(g, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := g.Stats().Errors; got != 1 {
		t.Errorf("errors = %d, want 1", got)
	}
	if got := g.Stats().Inflight; got != 0 {
		t.Errorf("slot leaked on 5xx: inflight = %d", got)
	}
}

func TestMiddlewareClassifyRoutesClasses(t *testing.T) {
	g, err := New(Config{Limit: 1, Policy: Priority})
	if err != nil {
		t.Fatal(err)
	}
	classify := func(r *http.Request) Request {
		if r.URL.Path == "/vip" {
			return Request{Class: ClassHigh}
		}
		return Request{}
	}
	var mu sync.Mutex
	var order []string
	release := make(chan struct{})
	h := MiddlewareClassify(g, classify, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		default:
			<-release
		}
		mu.Lock()
		order = append(order, r.URL.Path)
		mu.Unlock()
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	var wg sync.WaitGroup
	get := func(path string) {
		defer wg.Done()
		resp, err := http.Get(srv.URL + path)
		if err == nil {
			resp.Body.Close()
		}
	}
	wg.Add(1)
	go get("/first") // occupies the slot
	for g.Stats().Inflight != 1 {
		time.Sleep(time.Millisecond)
	}
	wg.Add(1)
	go get("/low")
	for g.Stats().Queued != 1 {
		time.Sleep(time.Millisecond)
	}
	wg.Add(1)
	go get("/vip")
	for g.Stats().Queued != 2 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[1] != "/vip" {
		t.Errorf("service order = %v, want /vip served before /low", order)
	}
}

func TestMiddlewareForwardsFlusher(t *testing.T) {
	g, err := New(Config{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The handler reports through a channel once Flush has returned:
	// http.Get returns as soon as the flushed headers arrive, before
	// the handler is done, so a plain variable would race.
	flushed := make(chan bool, 1)
	h := Middleware(g, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Error("ResponseWriter behind the middleware lost http.Flusher")
			flushed <- false
			return
		}
		io.WriteString(w, "chunk")
		f.Flush()
		flushed <- true
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "chunk" {
		t.Errorf("body = %q, want %q", body, "chunk")
	}
	if !<-flushed {
		t.Error("streaming handler could not flush")
	}
}
