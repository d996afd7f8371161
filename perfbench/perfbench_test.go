package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"

	"tesa/internal/jobspec"
)

// specList is batch k's job documents, as the server receives them.
func specList(seed int64, k int) [][]byte {
	pool := servePool()
	var out [][]byte
	for _, p := range jobList(seed, k) {
		out = append(out, pool[p])
	}
	return out
}

func TestSpecListDeterministic(t *testing.T) {
	a, b := specList(7, 0), specList(7, 0)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("job %d differs between two draws of seed 7", i)
		}
	}
	same := func(x, y [][]byte) bool {
		for i := range x {
			if !bytes.Equal(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	if same(a, specList(8, 0)) {
		t.Error("seeds 7 and 8 drew the same job list")
	}
	if same(a, specList(7, 1)) {
		t.Error("batches 0 and 1 of seed 7 are the same job list")
	}
}

func TestSpecListMixAndParse(t *testing.T) {
	counts := map[string]int{}
	for _, raw := range specList(3, 0) {
		spec, err := jobspec.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := spec.Resolve(""); err != nil {
			t.Fatal(err)
		}
		counts[spec.Kind]++
	}
	for _, k := range serveKinds {
		if counts[k.kind] != k.n {
			t.Errorf("%s jobs: got %d, want %d", k.kind, counts[k.kind], k.n)
		}
	}
}

func TestBatchSpecsParse(t *testing.T) {
	for _, doc := range []string{optimize2D, sweep3D, simTenants} {
		spec, err := jobspec.Parse([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := spec.Resolve(""); err != nil {
			t.Fatal(err)
		}
	}
}

func best(dim, ics, rows, cols int, obj, peak float64) *jobspec.Result {
	return &jobspec.Result{Found: true, Best: &jobspec.Best{
		ArrayDim: dim, ICSUM: ics, MeshRows: rows, MeshCols: cols, Objective: obj, PeakTempC: peak,
	}}
}

func TestChecksRejectPerturbedAnswers(t *testing.T) {
	up := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	cases := []struct {
		name  string
		check func(*jobspec.Result) error
		good  func() *jobspec.Result
		bad   []func(*jobspec.Result)
	}{
		{"optimize-2d", checkOptimize2D,
			func() *jobspec.Result { return best(250, 900, 2, 1, optimize2DObjective, 71.1819514) },
			[]func(*jobspec.Result){
				func(r *jobspec.Result) { r.Best.Objective = up(r.Best.Objective) },
				func(r *jobspec.Result) { r.Best.ArrayDim += 2 },
				func(r *jobspec.Result) { r.Best.ICSUM += 50 },
				func(r *jobspec.Result) { r.Best.MeshRows, r.Best.MeshCols = 1, 2 },
				func(r *jobspec.Result) { r.Best.PeakTempC += 0.01 },
				func(r *jobspec.Result) { r.Found, r.Best = false, nil },
			}},
		{"sweep-3d", checkSweep3D,
			func() *jobspec.Result { return best(188, 600, 2, 2, sweep3DObjective, 69.97) },
			[]func(*jobspec.Result){
				func(r *jobspec.Result) { r.Best.Objective = up(r.Best.Objective) },
				func(r *jobspec.Result) { r.Best.ArrayDim -= 2 },
				func(r *jobspec.Result) { r.Best.ICSUM = 650 },
				func(r *jobspec.Result) { r.Best.MeshCols = 1 },
			}},
		{"sim-tenants", checkSimTenants,
			func() *jobspec.Result {
				return &jobspec.Result{Found: true, Sim: &jobspec.SimOutcome{ArrayDim: 200, ICSUM: 1700, Score: simScore}}
			},
			[]func(*jobspec.Result){
				func(r *jobspec.Result) { r.Sim.Score.MeanSLARate = up(r.Sim.Score.MeanSLARate) },
				func(r *jobspec.Result) { r.Sim.Score.ThrottleEvents++ },
				func(r *jobspec.Result) { r.Sim.Score.WorstP99Sec = up(r.Sim.Score.WorstP99Sec) },
				func(r *jobspec.Result) { r.Sim.ArrayDim = 240 },
				func(r *jobspec.Result) { r.Sim = nil },
			}},
	}
	for _, c := range cases {
		if err := c.check(c.good()); err != nil {
			t.Errorf("%s: the recorded answer fails its own check: %v", c.name, err)
		}
		for i, perturb := range c.bad {
			r := c.good()
			perturb(r)
			if err := c.check(r); !errors.Is(err, errCheck) {
				t.Errorf("%s: perturbation %d passed the check (err %v)", c.name, i, err)
			}
		}
	}
}

func TestServeAnswerRejectsPerturbedAnswers(t *testing.T) {
	front := func() *jobspec.Result {
		return &jobspec.Result{Kind: jobspec.KindPareto, Found: true, Front: []jobspec.FrontPoint{
			{Found: true, Best: &jobspec.Best{ArrayDim: 126, ICSUM: 200, MeshRows: 2, MeshCols: 3, Objective: 2.86}},
			{Found: true, Best: &jobspec.Best{ArrayDim: 128, ICSUM: 0, MeshRows: 2, MeshCols: 3, Objective: 1.5}},
		}}
	}
	opt := func() *jobspec.Result {
		r := best(126, 200, 2, 3, 2.8618626653144856, 67.4)
		r.Kind = jobspec.KindOptimize
		return r
	}
	for name, perturb := range map[string]func() *jobspec.Result{
		"objective": func() *jobspec.Result { r := opt(); r.Best.Objective = math.Nextafter(r.Best.Objective, 0); return r },
		"point":     func() *jobspec.Result { r := opt(); r.Best.ICSUM = 400; return r },
		"mesh":      func() *jobspec.Result { r := opt(); r.Best.MeshCols = 2; return r },
		"not found": func() *jobspec.Result { r := opt(); r.Found, r.Best = false, nil; return r },
		"kind":      func() *jobspec.Result { r := opt(); r.Kind = jobspec.KindSweep; return r },
	} {
		if answer(perturb()) == answer(opt()) {
			t.Errorf("optimize answer unchanged by a perturbed %s", name)
		}
	}
	r := front()
	r.Front[1].Best.Objective = 1.5000000000000002
	if answer(r) == answer(front()) {
		t.Error("pareto answer unchanged by a perturbed front member")
	}
	r = front()
	r.Front = r.Front[:1]
	if answer(r) == answer(front()) {
		t.Error("pareto answer unchanged by a missing front member")
	}
	if answer(opt()) != answer(opt()) || answer(front()) != answer(front()) {
		t.Error("equal answers render differently")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []spanRecord{
		{ID: 1, Name: "unit", Start: 0, End: 10},
		{ID: 2, Parent: 1, Start: 1, End: 4},
		{ID: 3, Parent: 1, Start: 3, End: 6},  // overlaps 2: the union counts once
		{ID: 4, Parent: 1, Start: 8, End: 12}, // clipped to the parent
	}
	self := selfTimes(spans)
	if got := self[1]; math.Abs(got-3) > 1e-12 {
		t.Errorf("self time of the unit: got %v, want 3", got)
	}
	if got := self[2]; got != 3 {
		t.Errorf("self time of a leaf: got %v, want 3", got)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if got := median(v); got != 2.5 {
		t.Errorf("median: got %v, want 2.5", got)
	}
	if got := quantile(v, 1); got != 4 {
		t.Errorf("max: got %v, want 4", got)
	}
	if v[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the repository's BENCHMARK.json
// and the metrics this program prints in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range cfg.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(cfg.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(cfg.EndToEnd), len(endToEnd))
	}
	for i, m := range cfg.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if len(cfg.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(cfg.PerLayer), len(perLayer))
	}
	for i, m := range cfg.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, d.metricDef)
		}
	}
}

// TestServeWarmUnit sets serve-warm up traced, runs one batch through
// the two closed-loop clients and checks that every job passed its
// answer check and the store served every lookup.
func TestServeWarmUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and runs 274 jobs")
	}
	rec := newRecorder()
	inst, err := serveSetup(context.Background(), 5, rec, span{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	u, err := inst.unit(context.Background(), rec.open("unit", "", span{}))
	if err != nil {
		t.Fatal(err)
	}
	if u.attempted != 250 || u.failed != 0 || len(u.latencies) != 250 || len(u.jobs) != 250 {
		t.Fatalf("batch: %d attempted, %d failed, %d latencies, %d records", u.attempted, u.failed, len(u.latencies), len(u.jobs))
	}
	if u.sample == nil || u.sample.memo.Misses != 0 || u.sample.memo.Hits == 0 {
		t.Fatalf("warm batch memo traffic: %+v", u.sample)
	}
	if got := inst.retained(); got != len(servePool())+250 {
		t.Errorf("server retains %d jobs, want %d", got, len(servePool())+250)
	}
}
