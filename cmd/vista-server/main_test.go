package main

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServeGracefulShutdown asserts serve drains and returns nil once its
// context is cancelled — the SIGINT/SIGTERM path. BaseContext is net/http's
// hook for "the listener is up"; the test answers one request through it
// before cancelling, so the shutdown drains a server that really served.
func TestServeGracefulShutdown(t *testing.T) {
	listening := make(chan net.Addr, 1) // one send: BaseContext runs once per Serve
	srv := &http.Server{Addr: "127.0.0.1:0", Handler: newHandler(nil),
		BaseContext: func(l net.Listener) context.Context {
			listening <- l.Addr()
			return context.Background()
		}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- serve(ctx, srv) }()
	select {
	case addr := <-listening:
		resp, err := http.Get("http://" + addr.String() + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz = %d", resp.StatusCode)
		}
	case err := <-done:
		t.Fatalf("serve returned %v before listening", err)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v, want clean shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not shut down after cancellation")
	}
}

// TestServeListenError asserts listener failures surface instead of hanging
// until a signal.
func TestServeListenError(t *testing.T) {
	srv := &http.Server{Addr: "256.0.0.1:-1", Handler: newHandler(nil)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := serve(ctx, srv); err == nil {
		t.Fatal("serve accepted an unlistenable address")
	}
}
