package store_test

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core/store"
)

// countConns starts h on a test server that counts the connections
// clients open to it.
func countConns(t *testing.T, h http.Handler) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, &conns
}

// TestClientMissesReuseConnections pins that a cache miss costs a
// request, not a connection: the client reads the 404's body before
// closing it, so net/http keeps the connection alive. Sequential
// misses share one connection. Concurrent ones open about one per
// request in flight: net/http may hand a freed connection to a request
// that is waiting on a dial, and the dialled one then joins the idle
// pool, so the bound is twice that.
func TestClientMissesReuseConnections(t *testing.T) {
	t.Parallel()
	srv, conns := countConns(t, store.NewServer(mustOpen(t, t.TempDir())))
	cl := mustDial(t, srv.URL)

	for i := 0; i < 200; i++ {
		if _, ok := cl.Get(testFP(i)); ok {
			t.Fatal("empty store hit")
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("200 sequential misses opened %d connections, want 1", n)
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				cl.Get(fmt.Sprintf("%064x", w<<8|i))
			}
		}()
	}
	wg.Wait()
	if n := conns.Load(); n > 2*workers {
		t.Fatalf("%d goroutines' 400 misses opened %d connections, want at most %d", workers, n, 2*workers)
	}
}
