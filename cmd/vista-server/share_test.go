package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/share"
)

// shareRunResult is what one flooded /run came back with.
type shareRunResult struct {
	code      int
	runID     string
	role      string
	groupSize int
}

// postRun issues one real POST /run and decodes the sharing fields.
func postRun(t *testing.T, url, body string) shareRunResult {
	t.Helper()
	resp, err := http.Post(url+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Errorf("post: %v", err)
		return shareRunResult{}
	}
	defer resp.Body.Close()
	out := shareRunResult{code: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return out
	}
	var payload struct {
		RunID string `json:"run_id"`
		Share *struct {
			Role      string `json:"role"`
			GroupSize int    `json:"group_size"`
		} `json:"share"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Errorf("decode /run response: %v", err)
		return out
	}
	out.runID = payload.RunID
	if payload.Share != nil {
		out.role = payload.Share.Role
		out.groupSize = payload.Share.GroupSize
	}
	return out
}

// TestSharedRunsServeTracesPerMember floods a -share server with identical
// /run requests and checks the satellite contract: every member — leader and
// followers alike — gets its own run ID whose /trace and /timeseries resolve,
// follower traces carry shared:<layer> stages, and the share metrics
// reconcile with the admission counters.
func TestSharedRunsServeTracesPerMember(t *testing.T) {
	const rows, layers, parallel = 40, 2, 6
	price, err := core.Price(serverSpec(t, rows, layers))
	if err != nil {
		t.Fatalf("Price: %v", err)
	}
	a := newAPI(serverConfig{
		sloP99:         defaultSLOP99,
		memBudgetBytes: int64(parallel) * price, // everything fits: sharing, not admission, is under test
		queueDepth:     parallel,
		queueTimeout:   30 * time.Second,
		runHistory:     parallel,
		share:          true,
		clk:            clock.NewFake(), // the group never stops accepting joiners on time
	})
	srv := httptest.NewServer(a.handler())
	defer srv.Close()

	results := make([]shareRunResult, parallel)
	var wg sync.WaitGroup
	wg.Add(parallel)
	for i := 0; i < parallel; i++ {
		go func(i int) {
			defer wg.Done()
			results[i] = postRun(t, srv.URL, runBody(rows, layers))
		}(i)
	}
	wg.Wait()

	roles := make(map[string]int)
	for i, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("request %d = %d, want 200", i, r.code)
		}
		if r.runID == "" || r.role == "" {
			t.Fatalf("request %d response lacks run_id/share: %+v", i, r)
		}
		roles[r.role]++
	}
	// The first arrival leads, and every other request arrives while its
	// pass is still running, so the whole flood shares one group: exactly one
	// leader, everyone else following.
	if roles["leader"] != 1 || roles["follower"] != parallel-1 || roles["solo"] != 0 {
		t.Errorf("roles = %v, want 1 leader + %d followers", roles, parallel-1)
	}

	// Per-member observability: every run ID resolves its own trace and time
	// series, and follower traces are labeled as attached shared stages.
	for _, r := range results {
		tr := get(t, a.handler(), "/trace/chrome?run="+r.runID)
		if tr.Code != http.StatusOK {
			t.Errorf("trace for %s (%s) = %d", r.runID, r.role, tr.Code)
			continue
		}
		ts := get(t, a.handler(), "/timeseries?run="+r.runID)
		if ts.Code != http.StatusOK {
			t.Errorf("timeseries for %s (%s) = %d", r.runID, r.role, ts.Code)
		}
		hasShared := strings.Contains(tr.Body.String(), "shared:")
		switch r.role {
		case "follower":
			if !hasShared {
				t.Errorf("follower %s trace has no shared:<layer> stage", r.runID)
			}
		case "leader":
			if hasShared {
				t.Errorf("leader %s trace claims shared stages", r.runID)
			}
		}
	}

	// Reconciliation: every admitted run took exactly one role, and the
	// shared pass saved real modeled FLOPs.
	st := a.life.Share.Stats()
	admitted := a.life.Admit.Stats().Admitted
	if total := st.Leaders + st.Followers + st.Solos; total != admitted {
		t.Errorf("share outcomes %d (%+v) != admitted %d", total, st, admitted)
	}
	if st.Aborted != 0 {
		t.Errorf("aborted = %d with no failures", st.Aborted)
	}
	if st.DedupFLOPs <= 0 {
		t.Errorf("dedup FLOPs = %d, want > 0", st.DedupFLOPs)
	}
	if st.OpenGroups != 0 || st.WaitingMembers != 0 || st.LiveGroups != 0 {
		t.Errorf("coordinator not drained: %+v", st)
	}

	// The Prometheus exposition carries the role-split series.
	scrape := get(t, a.handler(), "/metrics").Body.String()
	for _, want := range []string{
		`vista_share_runs_total{role="leader"} 1`,
		fmt.Sprintf(`vista_share_runs_total{role="follower"} %d`, parallel-1),
		"vista_share_dedup_flops_total",
		"vista_share_group_size",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestShareDisabledByDefault checks that without cfg.share the handler never
// builds a coordinator and /run responses carry no share block.
func TestShareDisabledByDefault(t *testing.T) {
	a := newAPI(serverConfig{sloP99: defaultSLOP99})
	if a.life.Share != nil {
		t.Fatal("coordinator built although share is off")
	}
	code, body := doJSON(t, a.handler(), "POST", "/run", runBody(24, 1))
	if code != http.StatusOK {
		t.Fatalf("run = %d %v", code, body)
	}
	if _, ok := body["share"]; ok {
		t.Errorf("response advertises sharing while disabled: %v", body["share"])
	}
}

// TestShareMismatchedRequestsStaySolo posts two concurrent runs over
// different row counts: their data checksums differ, so they must not group.
func TestShareMismatchedRequestsStaySolo(t *testing.T) {
	a := newAPI(serverConfig{
		sloP99:      defaultSLOP99,
		share:       true,
		shareWindow: 300 * time.Millisecond,
	})
	srv := httptest.NewServer(a.handler())
	defer srv.Close()

	var wg sync.WaitGroup
	results := make([]shareRunResult, 2)
	for i, rows := range []int{24, 32} {
		wg.Add(1)
		go func(i, rows int) {
			defer wg.Done()
			results[i] = postRun(t, srv.URL, runBody(rows, 1))
		}(i, rows)
	}
	wg.Wait()

	for i, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("request %d = %d", i, r.code)
		}
		if r.role != share.Solo.String() {
			t.Errorf("request %d sealed as %s (group size %d), want solo", i, r.role, r.groupSize)
		}
	}
	st := a.life.Share.Stats()
	if st.Solos != 2 || st.Followers != 0 || st.Leaders != 0 {
		t.Errorf("stats = %+v, want 2 solos", st)
	}
}

// TestShareServesWithoutWindowWait: on a -share server whose clock never
// moves, a lone /run and a lockstep identical pair both complete — the first
// arrival leads at once and nobody waits out -share-window. A server that
// made runs wait for the window would hold each request until its context
// deadline and answer 499, so this fails rather than hangs.
func TestShareServesWithoutWindowWait(t *testing.T) {
	a := newAPI(serverConfig{sloP99: defaultSLOP99, share: true, clk: clock.NewFake()})
	h := a.handler()
	post := func() int {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(runBody(24, 1))).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := post(); code != http.StatusOK {
		t.Fatalf("lone /run = %d, want 200", code)
	}
	codes := make([]int, 2)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = post()
		}(i)
	}
	wg.Wait()
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK {
		t.Fatalf("lockstep pair = %v, want two 200s", codes)
	}
	st := a.life.Share.Stats()
	if total := st.Leaders + st.Followers + st.Solos; total != 3 || st.Aborted != 0 {
		t.Errorf("share outcomes = %+v, want 3 started runs and no aborts", st)
	}
	if st.OpenGroups != 0 || st.WaitingMembers != 0 || st.LiveGroups != 0 {
		t.Errorf("coordinator not drained: %+v", st)
	}
}
