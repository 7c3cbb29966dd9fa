package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/featurestore"
)

// Env is where the benchmark builds and runs: everything it writes lands
// under Root.
type Env struct {
	// Root is the checkout: the directory holding go.mod and cmd/.
	Root string
	// Work is the scratch directory for the server binary, feature stores
	// and server logs.
	Work string
	// ServerBin is the built vista-server; BuildS how long building took.
	ServerBin string
	BuildS    float64
	client    *http.Client
}

// NewEnv builds cmd/vista-server from source, once per invocation.
func NewEnv(root string) (*Env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	e := &Env{
		Root:      root,
		Work:      filepath.Join(root, ".bench_build"),
		ServerBin: filepath.Join(root, ".bench_build", "vista-server"),
		client:    &http.Client{Timeout: 2 * time.Minute},
	}
	if err := os.MkdirAll(e.Work, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", e.ServerBin, "./cmd/vista-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build vista-server: %w\n%s", err, out)
	}
	e.BuildS = time.Since(start).Seconds()
	return e, nil
}

// Server is one vista-server subprocess on a loopback port.
type Server struct {
	Base string // http://127.0.0.1:port
	cmd  *exec.Cmd
	dir  string // feature store + log; removed by Stop
	logf *os.File
}

// Boot starts a fresh server for w on a free port with an empty feature
// store and returns once /healthz answers.
func (e *Env) Boot(ctx context.Context, w Workload) (*Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	dir, err := os.MkdirTemp(e.Work, "srv-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-feature-cache", filepath.Join(dir, "store")}, w.ServerFlags()...)
	cmd := exec.Command(e.ServerBin, args...)
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &Server{Base: "http://" + addr, cmd: cmd, dir: dir, logf: logf}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := e.client.Get(s.Base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			s.Stop()
			return nil, fmt.Errorf("server on %s never became healthy: %v", addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Stop terminates the server, waits until it has exited, and removes its
// directory.
func (s *Server) Stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { s.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	s.logf.Close()
	os.RemoveAll(s.dir)
}

// RSSPeakMiB reads the server's peak resident set (VmHWM).
func (s *Server) RSSPeakMiB() float64 {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// Post sends one /run request and returns the status, body and latency.
func (e *Env) Post(s *Server, req Request) (status int, body []byte, latency time.Duration, err error) {
	blob, err := json.Marshal(req)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := e.client.Post(s.Base+"/run", "application/json", bytes.NewReader(blob))
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, time.Since(start), err
}

// Counters is what the live server exposes about its layers: GET
// /featurestore and the admission series of GET /metrics.
type Counters struct {
	Store    featurestore.Stats
	Admitted float64
	Rejected float64
	// WaitCount/WaitSum/WaitFast are the admission queue-wait histogram's
	// count, sum (seconds) and first bucket (waits under a millisecond).
	WaitCount, WaitSum, WaitFast float64
}

// Scrape reads the server's counters.
func (e *Env) Scrape(s *Server) (Counters, error) {
	var c Counters
	resp, err := e.client.Get(s.Base + "/featurestore")
	if err != nil {
		return c, err
	}
	var fs struct {
		Stats featurestore.Stats `json:"stats"`
	}
	err = json.NewDecoder(resp.Body).Decode(&fs)
	resp.Body.Close()
	if err != nil {
		return c, fmt.Errorf("decode /featurestore: %w", err)
	}
	c.Store = fs.Stats
	resp, err = e.client.Get(s.Base + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch {
		case name == "vista_admission_admitted_total":
			c.Admitted = v
		case strings.HasPrefix(name, "vista_admission_rejected_total"):
			c.Rejected += v
		case name == "vista_admission_queue_wait_seconds_count":
			c.WaitCount = v
		case name == "vista_admission_queue_wait_seconds_sum":
			c.WaitSum = v
		case name == `vista_admission_queue_wait_seconds_bucket{le="0.001"}`:
			c.WaitFast = v
		}
	}
	return c, sc.Err()
}

// layerMetrics turns the counters' growth between two scrapes into the
// per-layer metrics the live server can supply.
func (after Counters) layerMetrics(before Counters, m Metrics) {
	hits := float64(after.Store.Hits - before.Store.Hits)
	misses := float64(after.Store.Misses - before.Store.Misses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	m.set(PerLayer, "featurestore.hit_ratio", ratio)
	m.set(PerLayer, "featurestore.puts", float64(after.Store.Puts-before.Store.Puts))
	m.set(PerLayer, "featurestore.evictions", float64(after.Store.Evictions-before.Store.Evictions))
	m.set(PerLayer, "featurestore.evicted_bytes", float64(after.Store.EvictedBytes-before.Store.EvictedBytes))
	count := after.WaitCount - before.WaitCount
	wait := 0.0
	if count > 0 {
		wait = 1000 * (after.WaitSum - before.WaitSum) / count
	}
	m.set(PerLayer, "admission.wait_ms", wait)
	m.set(PerLayer, "admission.admitted", after.Admitted-before.Admitted)
	m.set(PerLayer, "admission.queued", count-(after.WaitFast-before.WaitFast))
	m.set(PerLayer, "admission.rejected", after.Rejected-before.Rejected)
}
