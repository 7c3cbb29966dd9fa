package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cnn"
	"repro/internal/data"
	"repro/internal/featurestore"
	"repro/internal/memory"
)

// newHandler builds the service mux around a shared feature store (nil
// disables cross-run caching), with the default latency SLO and no
// admission budget.
func newHandler(store *featurestore.Store) http.Handler {
	return newHandlerSLO(store, defaultSLOP99)
}

// newHandlerSLO is newHandler with an explicit p99 latency bound (seconds)
// for /healthz?slo=1.
func newHandlerSLO(store *featurestore.Store, sloP99 float64) http.Handler {
	return newAPI(serverConfig{store: store, sloP99: sloP99}).handler()
}

func doJSON(t *testing.T, h http.Handler, method, path, body string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			// /roster returns an array; re-wrap for uniform handling.
			var arr []any
			if err2 := json.Unmarshal(rec.Body.Bytes(), &arr); err2 != nil {
				t.Fatalf("%s %s: bad JSON: %v (%s)", method, path, err, rec.Body.String())
			}
			out = map[string]any{"array": arr}
		}
	}
	return rec.Code, out
}

func TestHealthz(t *testing.T) {
	h := newHandler(nil)
	code, body := doJSON(t, h, "GET", "/healthz", "")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", code, body)
	}
}

func TestRoster(t *testing.T) {
	h := newHandler(nil)
	code, body := doJSON(t, h, "GET", "/roster", "")
	if code != http.StatusOK {
		t.Fatalf("roster = %d", code)
	}
	arr := body["array"].([]any)
	if len(arr) != 7 {
		t.Fatalf("roster has %d entries, want 7", len(arr))
	}
	first := arr[0].(map[string]any)
	if first["name"] != "alexnet" || first["params"].(float64) <= 0 {
		t.Errorf("first roster entry = %v", first)
	}
}

func TestExplainEndpoint(t *testing.T) {
	h := newHandler(nil)
	code, body := doJSON(t, h, "POST", "/explain", `{"model":"resnet50","dataset":"foods","layers":5}`)
	if code != http.StatusOK {
		t.Fatalf("explain = %d %v", code, body)
	}
	if body["feasible"] != true {
		t.Fatalf("not feasible: %v", body)
	}
	d := body["decision"].(map[string]any)
	if d["cpu"].(float64) != 7 {
		t.Errorf("cpu = %v, want 7 (paper Figure 11)", d["cpu"])
	}
	// Infeasible environment.
	code, body = doJSON(t, h, "POST", "/explain", `{"model":"vgg16","dataset":"foods","mem_gb":8}`)
	if code != http.StatusOK || body["feasible"] != false {
		t.Fatalf("8 GB VGG16 should be infeasible: %d %v", code, body)
	}
}

// Regression: an omitted "layers" used to default to 3 for every model but
// alexnet, so /explain priced resnet50 at 3 layers; the paper's |L| for every
// roster model is all its feature layers (resnet50: 5).
func TestExplainDefaultLayersFromModel(t *testing.T) {
	h := newHandler(nil)
	for model, want := range map[string]int{"alexnet": 4, "vgg16": 3, "resnet50": 5} {
		code, body := doJSON(t, h, "POST", "/explain", `{"model":"`+model+`","dataset":"foods"}`)
		if code != http.StatusOK {
			t.Fatalf("%s: explain = %d %v", model, code, body)
		}
		if got := len(body["table_size_bytes"].([]any)); got != want {
			t.Errorf("%s: %d table sizes, want the paper's %d layers", model, got, want)
		}
	}
}

func TestExplainValidationEndpoint(t *testing.T) {
	h := newHandler(nil)
	if code, _ := doJSON(t, h, "POST", "/explain", `{`); code != http.StatusBadRequest {
		t.Errorf("malformed body = %d", code)
	}
	if code, _ := doJSON(t, h, "POST", "/explain", `{"model":"nope","dataset":"foods"}`); code != http.StatusBadRequest {
		t.Errorf("unknown model = %d", code)
	}
	if code, _ := doJSON(t, h, "POST", "/explain", `{"model":"resnet50"}`); code != http.StatusBadRequest {
		t.Errorf("missing dataset = %d", code)
	}
	if code, _ := doJSON(t, h, "POST", "/explain", `{"model":"resnet50","dataset":"nope"}`); code != http.StatusBadRequest {
		t.Errorf("bad dataset = %d", code)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	h := newHandler(nil)
	code, body := doJSON(t, h, "POST", "/simulate", `{"model":"resnet50","dataset":"foods","layers":5}`)
	if code != http.StatusOK {
		t.Fatalf("simulate = %d %v", code, body)
	}
	if body["crashed"] != false {
		t.Fatalf("vista simulate crashed: %v", body)
	}
	total := body["total_minutes"].(float64)
	if total < 1 || total > 30 {
		t.Errorf("total = %v min, want plausible Foods/ResNet50 runtime", total)
	}
	layers := body["layers"].([]any)
	if len(layers) != 5 {
		t.Errorf("layers = %d, want 5", len(layers))
	}
	// A lazy plan must be slower.
	_, lazyBody := doJSON(t, h, "POST", "/simulate", `{"model":"resnet50","dataset":"foods","layers":5,"plan":"lazy"}`)
	if lazyBody["crashed"] != false {
		t.Fatalf("lazy simulate crashed: %v", lazyBody)
	}
	if lazyBody["total_minutes"].(float64) <= total {
		t.Error("lazy not slower than staged")
	}
	if code, _ := doJSON(t, h, "POST", "/simulate", `{"model":"resnet50","dataset":"foods","plan":"nope"}`); code != http.StatusBadRequest {
		t.Error("unknown plan accepted")
	}
}

// TestServerFeatureReuse exercises the process-wide store: a repeated /run
// serves every stage from cache, /featurestore reports the traffic, and
// /simulate prices the now-warm workload below a cold one.
func TestServerFeatureReuse(t *testing.T) {
	store, err := featurestore.Open(t.TempDir(), memory.MB(64))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	a := newAPI(serverConfig{store: store, sloP99: defaultSLOP99})
	h := a.handler()
	const runBody = `{"model":"tiny-alexnet","dataset":"foods","layers":2,"rows":100}`

	code, cold := doJSON(t, h, "POST", "/run", runBody)
	if code != http.StatusOK || cold["crashed"] != false {
		t.Fatalf("cold run = %d %v", code, cold)
	}
	coldCache := cold["cache"].(map[string]any)
	if coldCache["enabled"] != true || coldCache["stages_from_cache"].(float64) != 0 ||
		coldCache["entries_stored"].(float64) == 0 {
		t.Fatalf("cold cache report: %v", coldCache)
	}

	_, warm := doJSON(t, h, "POST", "/run", runBody)
	warmCache := warm["cache"].(map[string]any)
	if warmCache["stages_executed"].(float64) != 0 || warmCache["stages_from_cache"].(float64) == 0 {
		t.Fatalf("repeated run did not reuse features: %v", warmCache)
	}

	code, fs := doJSON(t, h, "GET", "/featurestore", "")
	if code != http.StatusOK || fs["enabled"] != true {
		t.Fatalf("featurestore = %d %v", code, fs)
	}
	if stats := fs["stats"].(map[string]any); stats["hits"].(float64) == 0 {
		t.Fatalf("store saw no hits: %v", stats)
	}

	// /simulate on the materialized workload sees the cached layers; an
	// unseen workload (different seed) stays cold and costs more.
	const simBody = `{"model":"tiny-alexnet","dataset":"foods","layers":2,"rows":100}`
	_, warmSim := doJSON(t, h, "POST", "/simulate", simBody)
	if warmSim["cached_layers"].(float64) != 2 {
		t.Fatalf("warm simulate cached_layers = %v, want 2", warmSim["cached_layers"])
	}
	_, coldSim := doJSON(t, h, "POST", "/simulate",
		`{"model":"tiny-alexnet","dataset":"foods","layers":2,"rows":100,"seed":8}`)
	if coldSim["cached_layers"].(float64) != 0 {
		t.Fatalf("unseen workload reported cached layers: %v", coldSim["cached_layers"])
	}
	if warmSim["total_minutes"].(float64) >= coldSim["total_minutes"].(float64) {
		t.Errorf("warm simulate (%v min) not cheaper than cold (%v min)",
			warmSim["total_minutes"], coldSim["total_minutes"])
	}

	// The store still holds the features after the catalog lets the tables go
	// (eviction, or a dataset too large to ever be held): /simulate must not
	// turn cold with them.
	a.catalog = data.NewCatalog()
	if _, again := doJSON(t, h, "POST", "/simulate", simBody); again["cached_layers"].(float64) != 2 {
		t.Fatalf("simulate cached_layers = %v once the tables left the catalog, want 2", again["cached_layers"])
	}
}

// TestSimulateAttachesWhatRunAttaches covers stores an LRU leaves partly
// evicted: /simulate's cached_layers must be the layers the next /run of the
// workload attaches, since both decide with plan.Attachable.
func TestSimulateAttachesWhatRunAttaches(t *testing.T) {
	full, err := featurestore.Open(t.TempDir(), memory.MB(64))
	if err != nil {
		t.Fatal(err)
	}
	a := newAPI(serverConfig{store: full, sloP99: defaultSLOP99})
	h := a.handler()
	const body = `{"model":"tiny-alexnet","dataset":"foods","layers":3,"rows":40}`
	code, cold := doJSON(t, h, "POST", "/run", body)
	if code != http.StatusOK {
		t.Fatalf("cold run = %d %v", code, cold)
	}
	sums := cold["cache"].(map[string]any)
	m, err := cnn.ByName("tiny-alexnet")
	if err != nil {
		t.Fatal(err)
	}
	layers := m.FeatureLayers[len(m.FeatureLayers)-3:]
	for _, tc := range []struct {
		name string
		held []int // positions in layers whose feature entries the store keeps
		want float64
	}{
		// The top steps attach: each one's successor attaches too, so no
		// raw carry is needed.
		{"top two features", []int{1, 2}, 2},
		// The top step runs live, so the middle one needs its carry, and
		// so does the bottom one: nothing attaches.
		{"bottom two features, no carries", []int{0, 1}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			part, err := featurestore.Open(t.TempDir(), memory.MB(64))
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range tc.held {
				k := featurestore.Key{Model: m.Name, WeightsSum: sums["weights_sum"].(string),
					DataSum: sums["data_sum"].(string), LayerIndex: layers[i].LayerIndex, Kind: featurestore.Feature}
				rows, ok, err := full.Get(k)
				if !ok || err != nil {
					t.Fatalf("cold run stored no %s features: %v", layers[i].Name, err)
				}
				if err := part.Put(k, rows); err != nil {
					t.Fatal(err)
				}
			}
			a.store = part
			_, sim := doJSON(t, h, "POST", "/simulate", body)
			if sim["cached_layers"] != tc.want {
				t.Errorf("/simulate cached_layers = %v, want %v", sim["cached_layers"], tc.want)
			}
			_, run := doJSON(t, h, "POST", "/run", body)
			if got := run["cache"].(map[string]any)["stages_from_cache"]; got != tc.want {
				t.Errorf("/run attached %v steps, want %v", got, tc.want)
			}
		})
	}
}

// TestFeatureStoreEndpointDisabled covers the nil-store configuration.
func TestFeatureStoreEndpointDisabled(t *testing.T) {
	code, body := doJSON(t, newHandler(nil), "GET", "/featurestore", "")
	if code != http.StatusOK || body["enabled"] != false {
		t.Fatalf("featurestore = %d %v", code, body)
	}
}

func TestRunEndpoint(t *testing.T) {
	h := newHandler(nil)
	code, body := doJSON(t, h, "POST", "/run",
		`{"model":"tiny-alexnet","dataset":"foods","layers":2,"rows":120}`)
	if code != http.StatusOK {
		t.Fatalf("run = %d %v", code, body)
	}
	if body["crashed"] != false {
		t.Fatalf("run crashed: %v", body)
	}
	layers := body["layers"].([]any)
	if len(layers) != 2 {
		t.Fatalf("layers = %d, want 2", len(layers))
	}
	l0 := layers[0].(map[string]any)
	if l0["test_f1"].(float64) <= 0 {
		t.Errorf("layer metrics missing: %v", l0)
	}
	// Row cap enforced.
	if code, _ := doJSON(t, h, "POST", "/run",
		`{"model":"tiny-alexnet","dataset":"foods","rows":999999}`); code != http.StatusBadRequest {
		t.Error("row cap not enforced")
	}
}
