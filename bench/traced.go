package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/calib"
	"repro/internal/cnn"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dataflow"
	"repro/internal/dl"
	"repro/internal/featurestore"
	"repro/internal/memory"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/share"
)

// inproc is the state cmd/vista-server keeps per process, built here with
// the server's flag defaults so the traced replay makes the same public
// calls handleRun makes. No span lives inside the program: every one below
// is recorded around a call from out here.
type inproc struct {
	w       Workload
	store   *featurestore.Store
	scratch *featurestore.Store // the Put probe writes here, unbounded
	reg     *obs.Registry
	admit   *admission.Controller
	coord   *share.Coordinator // nil unless w.Share
	calib   *calib.Recorder
}

func newInproc(dir string, w Workload) (*inproc, error) {
	p := &inproc{w: w, reg: obs.NewRegistry()}
	mb := int64(serverCacheMB)
	if w.CacheMB > 0 {
		mb = int64(w.CacheMB)
	}
	var err error
	if p.store, err = featurestore.Open(filepath.Join(dir, "store"), mb<<20); err != nil {
		return nil, err
	}
	p.store.RegisterMetrics(p.reg)
	if p.scratch, err = featurestore.Open(filepath.Join(dir, "scratch"), 0); err != nil {
		return nil, err
	}
	// vista-server's -mem-budget, -queue-depth and -queue-timeout defaults.
	p.admit, err = admission.New(admission.Config{
		BudgetBytes: (256 << 10) << 20, QueueDepth: 16, QueueTimeout: 30 * time.Second, Metrics: p.reg})
	if err != nil {
		return nil, err
	}
	if w.Share {
		// -share-window's default.
		if p.coord, err = share.New(share.Config{Window: 150 * time.Millisecond, Metrics: p.reg}); err != nil {
			return nil, err
		}
	}
	p.calib, err = calib.Open(calib.Config{})
	return p, err
}

func (p *inproc) close() {
	p.store.Close()
	p.scratch.Close()
	p.calib.Close()
}

// served is what one in-process request leaves behind for the probes.
type served struct {
	res        *core.Result
	structRows []dataflow.Row
	spec       core.Spec
	body       []byte // the response as the server would encode it
	// inferFLOPs is the CNN work the run executed: the engine's own count,
	// read from its infer:* stage spans.
	inferFLOPs int64
}

// handle serves one request the way handleRun does, with a span around
// each call. The engine's own stage spans (ingest, join, infer:*, train:*,
// cache:*, shared:*) are read from the result and filed under the
// core.RunContext span.
func (p *inproc) handle(rec *Recorder, id int, req Request) (*served, error) {
	ctx := context.Background()
	root := rec.Start("request", 0, id)
	defer rec.End(root)
	span := func(name string, fn func()) {
		sp := rec.Start(name, root, id)
		fn()
		rec.End(sp)
	}

	out := &served{}
	var imageRows []dataflow.Row
	var err error
	span("data.Generate", func() {
		out.structRows, imageRows, err = data.Generate(data.Foods().WithRows(req.Rows))
	})
	if err != nil {
		return nil, err
	}
	spec := core.Spec{
		Nodes: 2, CoresPerNode: 4, MemPerNode: memory.GB(32), SystemKind: memory.SparkLike,
		ModelName: req.Model, NumLayers: req.Layers, Downstream: core.DefaultDownstream(),
		StructRows: out.structRows, ImageRows: imageRows, Seed: req.Seed,
		FeatureStore: p.store, Metrics: p.reg, SampleEvery: 5 * time.Millisecond,
	}

	var ticket *share.Ticket
	if p.coord != nil {
		var fp core.Fingerprint
		var ok bool
		span("core.ShareFingerprint", func() { fp, ok = core.ShareFingerprint(spec) })
		if ok {
			span("share.Join", func() {
				ticket, err = p.coord.Join(ctx,
					share.Identity{Model: fp.Model, WeightsSum: fp.WeightsSum, DataSum: fp.DataSum},
					share.Member{NumLayers: fp.NumLayers, InferenceFLOPs: fp.InferenceFLOPs})
			})
			if err != nil {
				return nil, err
			}
		}
	}
	var runErr error
	defer func() { ticket.Finish(runErr) }()
	role := ticket.Role()
	if role == share.Follower {
		var att share.Attach
		span("share.AwaitLeader", func() { att, runErr = ticket.AwaitLeader(ctx) })
		if runErr != nil {
			return nil, runErr
		}
		spec.FeatureSource = att.Source
		role = ticket.Role()
	}
	if role == share.Leader {
		spec.FeatureSource = ticket.Source()
		spec.FeatureSink = ticket.Sink()
	}

	priceFn := core.Price
	if role == share.Follower {
		priceFn = core.PriceFollower
	}
	var price int64
	span("core.Price", func() { price, err = priceFn(spec) })
	if err == nil {
		var grant *admission.Grant
		span("admission.Admit", func() { grant, runErr = p.admit.Admit(ctx, price) })
		if runErr != nil {
			return nil, runErr
		}
		defer grant.Release()
	}

	ticket.Start()
	runSpan := rec.Start("core.RunContext", root, id)
	res, err := core.RunContext(ctx, spec)
	rec.End(runSpan)
	if runErr = err; err != nil {
		return nil, err
	}
	for _, sp := range res.Trace.Children() {
		if end, ok := sp.EndTime(); ok {
			rec.Add(sp.Name(), runSpan, id, sp.Start(), end)
		}
		if flops, ok := sp.Attr("flops"); ok && strings.HasPrefix(sp.Name(), "infer:") {
			out.inferFLOPs += flops
		}
	}
	out.res, out.spec = res, spec

	span("calib.record", func() {
		env := calib.RunEnv{
			ModelName: req.Model, Dataset: req.Dataset, Rows: len(spec.StructRows),
			StructDim: len(spec.StructRows[0].Structured), ImageRowBytes: imageRows[0].MemBytes(),
			PlanKind: plan.Staged, Placement: plan.AfterJoin, Nodes: spec.Nodes, Cores: spec.CoresPerNode,
			MemBytes: spec.MemPerNode,
		}
		// Calibration is observability in the server too: a failed
		// comparison is skipped, never a failed request.
		if samples, err := calib.CompareRun(env, res.Trace, res.Series); err == nil {
			_ = p.calib.Record(fmt.Sprintf("%s|%s|%d|%d", req.Model, req.Dataset, req.Rows, req.Seed), samples)
		}
	})
	span("response.encode", func() {
		type layerJSON struct {
			Layer      string  `json:"layer"`
			FeatureDim int     `json:"feature_dim"`
			TrainF1    float64 `json:"train_f1"`
			TestF1     float64 `json:"test_f1"`
		}
		var layers []layerJSON
		for _, l := range res.Layers {
			layers = append(layers, layerJSON{l.LayerName, l.FeatureDim, l.Train.F1, l.Test.F1})
		}
		resp := map[string]any{
			"crashed": false, "layers": layers, "decision": res.Decision,
			"elapsed_ms": res.Elapsed.Milliseconds(), "cache": res.Cache,
		}
		if ticket != nil {
			resp["share"] = map[string]any{"role": ticket.Role().String(), "group_size": ticket.GroupSize()}
		}
		var buf bytes.Buffer
		err = json.NewEncoder(&buf).Encode(resp)
		out.body = buf.Bytes()
	})
	return out, err
}

// replay serves reqs in order, a lockstep workload's pairs together, checks
// each response and hands each served request to after before serving the
// next. Nothing of a request is kept beyond that: twenty requests' tables
// held live would make this process collect garbage far less often than the
// server does.
func (p *inproc) replay(c *checker, rec *Recorder, reqs []Request, measured bool, after func(id int, sv *served) error) error {
	step := 1
	if p.w.Lockstep {
		step = Clients
	}
	for i := 0; i < len(reqs); i += step {
		group := reqs[i:min(i+step, len(reqs))]
		out := make([]*served, len(group))
		errs := make([]error, len(group))
		var wg sync.WaitGroup
		for k := range group {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				if out[k], errs[k] = p.handle(rec, i+k+1, group[k]); errs[k] == nil {
					_, errs[k] = c.check(group[k], http.StatusOK, out[k].body, measured)
				}
			}(k)
		}
		wg.Wait()
		for k := range group {
			if errs[k] == nil && after != nil {
				errs[k] = after(i+k+1, out[k])
			}
			if errs[k] != nil {
				return errs[k]
			}
		}
	}
	return nil
}

// probe records fn as a span outside any request tree; probes are direct
// calls into one layer with a request's own inputs.
func probe(rec *Recorder, name string, id int, fn func()) time.Duration {
	sp := rec.Start("probe:"+name, 0, id)
	start := time.Now()
	fn()
	took := time.Since(start)
	rec.End(sp)
	return took
}

// probes holds the direct per-layer measurements, one value per request
// that could be probed.
type probes struct {
	fingerprintMs, getMs, putMs, codecMBs, trainMs []float64
}

// probeRequest calls the layers a request went through directly, with that
// request's tables: fingerprinting, a store Get and Put of the bottom
// selected layer, the row codec, and driver-local training on it.
func (p *inproc) probeRequest(rec *Recorder, id int, sv *served, out *probes) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	out.fingerprintMs = append(out.fingerprintMs,
		ms(probe(rec, "core.ShareFingerprint", id, func() { core.ShareFingerprint(sv.spec) })))

	layer := sv.res.Plan.Layers[0]
	key := featurestore.Key{Model: sv.spec.ModelName, WeightsSum: sv.res.Cache.WeightsSum,
		DataSum: sv.res.Cache.DataSum, LayerIndex: layer.LayerIndex, Kind: featurestore.Feature}
	var rows []dataflow.Row
	var ok bool
	var err error
	got := probe(rec, "featurestore.Get", id, func() { rows, ok, err = p.store.Get(key) })
	if err != nil || !ok {
		return // evicted since the run: nothing to probe with
	}
	out.getMs = append(out.getMs, ms(got))
	out.putMs = append(out.putMs, ms(probe(rec, "featurestore.Put", id, func() { err = p.scratch.Put(key, rows) })))

	var blob []byte
	enc := probe(rec, "dataflow.EncodeRows", id, func() { blob, err = dataflow.EncodeRows(rows) })
	if err != nil {
		return
	}
	dec := probe(rec, "dataflow.DecodeRows", id, func() { _, err = dataflow.DecodeRows(blob) })
	out.codecMBs = append(out.codecMBs, 2*float64(len(blob))/1e6/(enc+dec).Seconds())

	byID := make(map[int64]*dataflow.Row, len(rows))
	for i := range rows {
		byID[rows[i].ID] = &rows[i]
	}
	joined := make([]dataflow.Row, 0, len(sv.structRows))
	for _, r := range sv.structRows {
		if f := byID[r.ID]; f != nil {
			r.Features = f.Features
			joined = append(joined, r)
		}
	}
	dim := len(sv.structRows[0].Structured) + layer.FeatureDim
	out.trainMs = append(out.trainMs, ms(probe(rec, "ml.TrainLogRegRows", id, func() {
		_, err = ml.TrainLogRegRows(joined, ml.StructuredPlusFeature(0), dim, ml.DefaultLogRegConfig())
	})))
}

// probeSession times dl.NewSession (weights realized, serialized, broadcast
// and charged) on an engine provisioned the way a cold run's would be.
func probeSession(rec *Recorder, spec core.Spec) (time.Duration, error) {
	spec.FeatureStore, spec.FeatureSource, spec.FeatureSink = nil, nil, nil
	ex, err := core.Explain(spec)
	if err != nil {
		return 0, err
	}
	if ex.Infeasible != nil {
		return 0, ex.Infeasible
	}
	engine, err := dataflow.NewEngine(dataflow.Config{
		Nodes: spec.Nodes, CoresPerNode: min(ex.Decision.CPU, spec.CoresPerNode), Kind: spec.SystemKind,
		Apportion: ex.Decision.Apportionment(optimizer.DefaultParams()), DefaultFormat: ex.Decision.Pers,
	})
	if err != nil {
		return 0, err
	}
	defer engine.Close()
	model, err := cnn.ByName(spec.ModelName)
	if err != nil {
		return 0, err
	}
	var sess *dl.Session
	took := probe(rec, "dl.NewSession", 0, func() { sess, err = dl.NewSession(engine, model, dl.Options{Seed: spec.Seed}) })
	if err != nil {
		return 0, err
	}
	sess.Close()
	return took, nil
}

// layerOf maps a span name to the row it is summed under in the shares
// table: the engine's per-layer stages fold into one row per kind.
func layerOf(name string) string {
	if kind, _, ok := strings.Cut(name, ":"); ok {
		return kind + ":*"
	}
	if name == "request" {
		return "request.gaps"
	}
	return name
}

// traceFile is what the traced run writes per workload.
type traceFile struct {
	Machine Machine `json:"machine"`
	Run     *Run    `json:"run"`
	Spans   []Span  `json:"spans"`
}

// Trace is the traced run of w: its first TracedRequests requests replayed
// in process under spans, probed layer by layer, and sent to a live server
// for the part of a request no in-process call covers.
func (e *Env) Trace(ctx context.Context, w Workload, seed int64) (*Run, error) {
	run := &Run{Workload: w.Name, Seed: seed, Traced: true, PerLayer: Metrics{}, Info: Metrics{}}
	c, err := newChecker(w)
	if err != nil {
		return nil, err
	}
	prewarm, seq := Sequence(w, seed, TracedRequests)
	dir, err := os.MkdirTemp(e.Work, "trace-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p, err := newInproc(dir, w)
	if err != nil {
		return nil, err
	}
	defer p.close()

	if err := p.replay(c, NewRecorder(), prewarm, false, nil); err != nil {
		return nil, fmt.Errorf("in-process prewarm: %w", err)
	}
	rec := NewRecorder()
	var pr probes
	var session time.Duration
	inferFLOPs := make([]int64, len(seq)+1) // by request ID
	err = p.replay(c, rec, seq, true, func(id int, sv *served) (err error) {
		p.probeRequest(rec, id, sv, &pr)
		inferFLOPs[id] = sv.inferFLOPs
		if id == 1 {
			session, err = probeSession(rec, sv.spec)
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("in-process replay: %w", err)
	}
	model, err := cnn.ByName(w.Model)
	if err != nil {
		return nil, err
	}
	var convGflops float64
	probe(rec, "tensor.Conv2D", 0, func() { convGflops = probeModelConvs(model) })
	machine := machineHeader(e.Root, true)

	// Per-request sums by span name, from the tree alone.
	spans := rec.Spans()
	self := selfTimes(spans)
	type perReq struct {
		total     int64            // the request span's duration
		dur, self map[string]int64 // by shares-table row
	}
	per := make([]perReq, len(seq)+1) // indexed by request ID, from 1
	for i := range per {
		per[i] = perReq{dur: map[string]int64{}, self: map[string]int64{}}
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "probe:") {
			continue
		}
		l := layerOf(s.Name)
		per[s.Request].dur[l] += s.EndNs - s.StartNs
		per[s.Request].self[l] += self[s.ID]
		shares[l] += float64(self[s.ID])
		if s.Name == "request" {
			per[s.Request].total = s.EndNs - s.StartNs
			total += float64(s.EndNs - s.StartNs)
		}
	}
	for l := range shares {
		shares[l] /= total
	}
	run.Shares = shares
	run.Info["trace.covered_share"] = Metric{Value: 1 - shares["request.gaps"], Unit: "ratio"}
	col := func(f func(r perReq, i int) float64) float64 {
		var vs []float64
		for i := 1; i < len(per); i++ {
			vs = append(vs, f(per[i], i))
		}
		return median(vs)
	}
	const msNs = 1e6
	rows := float64(w.Rows)
	m := run.PerLayer
	m.set(PerLayer, "data.generate_ms", col(func(r perReq, _ int) float64 { return float64(r.dur["data.Generate"]) / msNs }))
	m.set(PerLayer, "core.fingerprint_ms", median(pr.fingerprintMs))
	m.set(PerLayer, "core.price_us", col(func(r perReq, _ int) float64 { return float64(r.dur["core.Price"]) / 1e3 }))
	m.set(PerLayer, "core.run_self_ms", col(func(r perReq, _ int) float64 { return float64(r.self["core.RunContext"]) / msNs }))
	m.set(PerLayer, "dl.infer_ms_per_row", col(func(r perReq, _ int) float64 { return float64(r.dur["infer:*"]) / msNs / rows }))
	m.set(PerLayer, "dl.session_ms", float64(session)/msNs)
	m.set(PerLayer, "tensor.conv_gflops", convGflops)
	m.set(PerLayer, "tensor.peak_gemm_gflops", machine.PeakGemmGflops)
	m.set(PerLayer, "tensor.copy_gb_per_s", machine.CopyGBPerS)
	m.set(PerLayer, "cnn.flops_per_row", col(func(_ perReq, i int) float64 { return float64(inferFLOPs[i]) / rows }))
	m.set(PerLayer, "featurestore.get_ms", median(pr.getMs))
	m.set(PerLayer, "featurestore.put_ms", median(pr.putMs))
	m.set(PerLayer, "dataflow.ingest_join_ms", col(func(r perReq, _ int) float64 { return float64(r.dur["ingest"]+r.dur["join"]) / msNs }))
	m.set(PerLayer, "dataflow.codec_mb_per_s", median(pr.codecMBs))
	m.set(PerLayer, "ml.train_ms", col(func(r perReq, _ int) float64 { return float64(r.dur["train:*"]) / msNs }))
	m.set(PerLayer, "share.window_wait_ms", col(func(r perReq, _ int) float64 { return float64(r.dur["share.Join"]) / msNs }))
	m.set(PerLayer, "calib.record_ms", col(func(r perReq, _ int) float64 { return float64(r.dur["calib.record"]) / msNs }))

	if w.TwoPointRows > 0 {
		// One more cold request at many more rows splits the request time
		// into a fixed part and a per-row part.
		big := seq[0]
		big.Rows, big.Seed = w.TwoPointRows, seq[0].Seed+1
		start := time.Now()
		if _, err := p.handle(NewRecorder(), 0, big); err != nil {
			return nil, fmt.Errorf("two-point request: %w", err)
		}
		bigMs := float64(time.Since(start)) / msNs
		smallMs := col(func(r perReq, _ int) float64 { return float64(r.total) / msNs })
		perRow := (bigMs - smallMs) / float64(w.TwoPointRows-w.Rows)
		run.Info["two_point.per_row_ms"] = Metric{Value: perRow, Unit: "ms"}
		run.Info["two_point.fixed_ms"] = Metric{Value: smallMs - perRow*rows, Unit: "ms"}
	}

	// The same requests against a live server: what a request costs beyond
	// the calls above (routing, JSON, sampler, run ring), and the counters
	// only the server exposes.
	srv, _, err := e.setup(ctx, w, c, prewarm)
	if err != nil {
		return nil, err
	}
	defer srv.Stop()
	before, err := e.Scrape(srv)
	if err != nil {
		return nil, err
	}
	// One request at a time, as in process (a lockstep pair together).
	samples := e.drive(srv, c, seq, true, 1, never)
	after, err := e.Scrape(srv)
	if err != nil {
		return nil, err
	}
	var extra []float64
	for i, sm := range samples {
		run.Attempted++
		if sm.err != nil {
			run.fail("%v", sm.err)
			continue
		}
		extra = append(extra, float64(sm.latency)/msNs-float64(per[i+1].total)/msNs)
	}
	run.Samples = len(extra)
	run.TailSupported = supportedTail(len(extra))
	after.layerMetrics(before, m)
	m.set(PerLayer, "server.self_ms", median(extra))
	m.set(PerLayer, "server.rss_peak_mib", srv.RSSPeakMiB())
	formed, pairs := 0, 1
	if w.Lockstep {
		formed, pairs = coalesced(samples)
	}
	m.set(PerLayer, "share.coalesced_share", float64(formed)/float64(pairs))
	checkServing(run, w)
	run.Correct = run.Failed == 0 && run.Attempted > 0

	path := filepath.Join(e.Root, "bench", "out", "trace_"+w.Name+".json")
	return run, writeJSON(path, traceFile{Machine: machine, Run: run, Spans: spans})
}
