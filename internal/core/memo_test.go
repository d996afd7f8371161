package core

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"tesa/internal/dnn"
	"tesa/internal/memo"
	"tesa/internal/telemetry"
)

// memoEvaluator mirrors testEvaluator with Options.Memo enabled (a
// fresh private store).
func memoEvaluator(t *testing.T, tech Tech, freqMHz, fps, budgetC float64) *Evaluator {
	t.Helper()
	opts := DefaultOptions()
	opts.Tech = tech
	opts.FreqHz = freqMHz * 1e6
	opts.Grid = 24
	opts.Memo = true
	cons := DefaultConstraints()
	cons.FPS = fps
	cons.TempBudgetC = budgetC
	e, err := NewEvaluator(dnn.ARVRWorkload(), opts, cons, Models{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// recordJSON canonicalizes every scalar a DSE consumer reads (via the
// persisted-record encoding, whose jf wrapper makes NaN/Inf
// comparable) so two evaluations can be checked for bit-identity.
func recordJSON(t *testing.T, ev *Evaluation) string {
	t.Helper()
	raw, err := json.Marshal(newEvalRecord(ev))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestMemoEvaluationsBitIdentical: every evaluation served through the
// memo store is bit-identical to the plain pipeline's — all scalars
// (compared through the NaN-safe record encoding) and the structural
// outputs (schedule, placement) alike, in both DSE and reporting mode.
func TestMemoEvaluationsBitIdentical(t *testing.T) {
	ref := testEvaluator(t, Tech2D, 400, 15, 85)
	mem := memoEvaluator(t, Tech2D, 400, 15, 85)
	if mem.Memo() == nil {
		t.Fatal("Options.Memo did not attach a store")
	}
	for _, p := range gateSpace().Enumerate() {
		rev, rerr := ref.Evaluate(p)
		mev, merr := mem.Evaluate(p)
		if (rerr == nil) != (merr == nil) {
			t.Fatalf("%v: error disagreement: ref %v, memo %v", p, rerr, merr)
		}
		if rerr != nil {
			continue
		}
		if a, b := recordJSON(t, rev), recordJSON(t, mev); a != b {
			t.Errorf("%v: DSE evaluation diverged:\nref  %s\nmemo %s", p, a, b)
		}
		if !reflect.DeepEqual(rev.Schedule, mev.Schedule) {
			t.Errorf("%v: schedule diverged", p)
		}
		if !reflect.DeepEqual(rev.Placement, mev.Placement) {
			t.Errorf("%v: placement diverged", p)
		}
	}
	// Stage-level sharing must have fired across the sweep.
	st := mem.MemoStats()
	if st.Hits == 0 {
		t.Fatalf("store never hit: %+v", st)
	}
	// A second evaluator sharing the store is served whole evaluations
	// (within one evaluator, repeats stop at the local cache instead).
	p := gateSpace().Enumerate()[0]
	peer := testEvaluator(t, Tech2D, 400, 15, 85)
	peer.UseMemo(mem.Memo())
	before := mem.MemoStats().Kinds["eval"].Hits
	pev, err := peer.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	if mem.MemoStats().Kinds["eval"].Hits == before {
		t.Error("peer evaluation did not hit the eval store")
	}
	if rev, err := ref.Evaluate(p); err == nil {
		if recordJSON(t, pev) != recordJSON(t, rev) {
			t.Error("store-served evaluation diverged from the reference")
		}
	}

	// Reporting mode: full evaluations agree too, and upgrade the store
	// entry rather than being served by a DSE record.
	rfull, err := ref.EvaluateFull(p)
	if err != nil {
		t.Fatal(err)
	}
	mfull, err := mem.EvaluateFull(p)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := recordJSON(t, rfull), recordJSON(t, mfull); a != b {
		t.Errorf("full evaluation diverged:\nref  %s\nmemo %s", a, b)
	}
	if mfull.Compact() {
		t.Error("full evaluation reported compact")
	}
}

// TestMemoOptimizeIdenticalTrajectory: the optimizer's whole trajectory
// — winner, objective, evaluation and exploration counts, and every
// per-start result — is identical with memoization off, on, and on
// with pooled parallel chains.
func TestMemoOptimizeIdenticalTrajectory(t *testing.T) {
	space := tinySpace()
	ref := testEvaluator(t, Tech2D, 400, 15, 85)
	refRes, err := ref.OptimizeContext(context.Background(), space, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !refRes.Found {
		t.Fatal("reference optimizer found nothing on a feasible space")
	}

	runs := []struct {
		name string
		opt  *OptimizeOptions
	}{
		{"memo", nil},
		{"memo+parallel", &OptimizeOptions{Parallel: 4}},
	}
	for _, run := range runs {
		mem := memoEvaluator(t, Tech2D, 400, 15, 85)
		res, err := mem.OptimizeContext(context.Background(), space, 3, run.opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("%s: found nothing", run.name)
		}
		if res.Best.Point != refRes.Best.Point || res.Best.Objective != refRes.Best.Objective {
			t.Errorf("%s: winner changed: %v obj %v, want %v obj %v", run.name,
				res.Best.Point, res.Best.Objective, refRes.Best.Point, refRes.Best.Objective)
		}
		if res.Evaluations != refRes.Evaluations || res.Explored != refRes.Explored {
			t.Errorf("%s: trajectory changed: %d evaluations / %d explored, want %d / %d",
				run.name, res.Evaluations, res.Explored, refRes.Evaluations, refRes.Explored)
		}
		if len(res.PerStart) != len(refRes.PerStart) {
			t.Fatalf("%s: %d starts, want %d", run.name, len(res.PerStart), len(refRes.PerStart))
		}
		for i, ps := range res.PerStart {
			want := refRes.PerStart[i]
			if ps.Found != want.Found || ps.BestObj != want.BestObj || ps.Best != want.Best ||
				ps.Evaluations != want.Evaluations || ps.Accepted != want.Accepted ||
				ps.Uphill != want.Uphill || ps.Levels != want.Levels {
				t.Errorf("%s: start %d diverged: %+v, want %+v", run.name, i, ps, want)
			}
		}
	}
}

// TestMemoFaultMatrixTrajectory: with a fault-injection plan armed, the
// memoized run takes the exact same trajectory as the plain one —
// injection decisions fire at stage boundaries per point, the
// eval-level store is bypassed, and the quarantine ledgers match —
// across a stack of fault specs.
func TestMemoFaultMatrixTrajectory(t *testing.T) {
	space := tinySpace()
	for _, spec := range []string{
		"panic@sched:dim=184",
		"nan@thermal:dim=192,ics=0",
		"panic@systolic:rate=0.05,seed=7;error@cost:rate=0.05,seed=11",
	} {
		ref := testEvaluator(t, Tech2D, 400, 15, 85)
		ref.InjectFaults(injectPlan(t, spec))
		refRes, rerr := ref.OptimizeContext(context.Background(), space, 3, nil)

		for _, parallel := range []int{0, 4} {
			mem := memoEvaluator(t, Tech2D, 400, 15, 85)
			mem.InjectFaults(injectPlan(t, spec))
			res, err := mem.OptimizeContext(context.Background(), space, 3, &OptimizeOptions{Parallel: parallel})
			if (rerr == nil) != (err == nil) {
				t.Fatalf("%q/parallel=%d: error disagreement: ref %v, memo %v", spec, parallel, rerr, err)
			}
			if res.Found != refRes.Found {
				t.Fatalf("%q/parallel=%d: found disagreement", spec, parallel)
			}
			if refRes.Found && (res.Best.Point != refRes.Best.Point || res.Best.Objective != refRes.Best.Objective) {
				t.Errorf("%q/parallel=%d: winner changed under faults", spec, parallel)
			}
			if res.Evaluations != refRes.Evaluations || res.Quarantined != refRes.Quarantined {
				t.Errorf("%q/parallel=%d: %d evaluations / %d quarantined, want %d / %d",
					spec, parallel, res.Evaluations, res.Quarantined, refRes.Evaluations, refRes.Quarantined)
			}
			if !reflect.DeepEqual(res.Poisoned, refRes.Poisoned) {
				t.Errorf("%q/parallel=%d: quarantine ledger diverged:\nmemo %v\nref  %v",
					spec, parallel, res.Poisoned, refRes.Poisoned)
			}
		}
	}
}

// TestMemoDiskWarmOptimize: a second process (modeled by a fresh store
// and evaluator over the same -memo-dir) reloads the first run's
// records, re-derives the identical winner mostly from disk, and
// upgrades the compact winning record to a full evaluation before
// reporting it.
func TestMemoDiskWarmOptimize(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "memo")
	space := tinySpace()

	cold := testEvaluator(t, Tech2D, 400, 15, 85)
	coldStore := memo.NewStore()
	closeCold, err := LoadMemoDir(coldStore, dir)
	if err != nil {
		t.Fatal(err)
	}
	cold.UseMemo(coldStore)
	coldRes, err := cold.OptimizeContext(context.Background(), space, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !coldRes.Found {
		t.Fatal("cold run found nothing")
	}
	if err := closeCold(); err != nil {
		t.Fatal(err)
	}

	warm := testEvaluator(t, Tech2D, 400, 15, 85)
	warmStore := memo.NewStore()
	closeWarm, err := LoadMemoDir(warmStore, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWarm()
	if loaded := warmStore.Stats().Loaded; loaded == 0 {
		t.Fatal("warm store loaded nothing from disk")
	}
	warm.UseMemo(warmStore)
	tel := telemetry.New(nil)
	warm.Instrument(tel)
	warmRes, err := warm.OptimizeContext(context.Background(), space, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !warmRes.Found {
		t.Fatal("warm run found nothing")
	}
	if warmRes.Best.Point != coldRes.Best.Point || warmRes.Best.Objective != coldRes.Best.Objective {
		t.Errorf("warm winner %v obj %v, want %v obj %v",
			warmRes.Best.Point, warmRes.Best.Objective, coldRes.Best.Point, coldRes.Best.Objective)
	}
	if warmRes.Evaluations != coldRes.Evaluations || warmRes.Explored != coldRes.Explored {
		t.Errorf("warm trajectory changed: %d/%d, want %d/%d",
			warmRes.Evaluations, warmRes.Explored, coldRes.Evaluations, coldRes.Explored)
	}
	// The winner served from a compact disk record must have been
	// upgraded for reporting.
	if warmRes.Best.Compact() {
		t.Error("reported winner is still a compact record")
	}
	if warmRes.Best.Schedule == nil {
		t.Error("reported winner lost its schedule")
	}
	if hits := tel.Registry().Counter("memo.hit.eval").Value(); hits == 0 {
		t.Error("warm run never hit the persisted eval records")
	}
}

// TestMemoSharedStoreConcurrentEvaluators: two evaluators share one
// store while optimizing concurrently with pooled chains — the -race
// target for the cross-evaluator single-flight path — and both land on
// the reference result.
func TestMemoSharedStoreConcurrentEvaluators(t *testing.T) {
	space := tinySpace()
	ref := testEvaluator(t, Tech2D, 400, 15, 85)
	refRes, err := ref.OptimizeContext(context.Background(), space, 3, nil)
	if err != nil {
		t.Fatal(err)
	}

	store := memo.NewStore()
	evs := []*Evaluator{
		testEvaluator(t, Tech2D, 400, 15, 85),
		testEvaluator(t, Tech2D, 400, 15, 85),
	}
	results := make([]*OptimizeResult, 2)
	errs := make([]error, 2)
	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		evs[i].UseMemo(store)
		go func(i int) {
			defer func() { done <- i }()
			res, err := evs[i].OptimizeContext(context.Background(), space, 3, &OptimizeOptions{Parallel: 3})
			results[i], errs[i] = res, err
		}(i)
	}
	for i := 0; i < 2; i++ {
		<-done
	}
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		res := results[i]
		if !res.Found || res.Best.Point != refRes.Best.Point || res.Best.Objective != refRes.Best.Objective {
			t.Errorf("evaluator %d: winner %v obj %v, want %v obj %v",
				i, res.Best.Point, res.Best.Objective, refRes.Best.Point, refRes.Best.Objective)
		}
		if res.Evaluations != refRes.Evaluations {
			t.Errorf("evaluator %d: %d evaluations, want %d", i, res.Evaluations, refRes.Evaluations)
		}
	}
	if st := store.Stats(); st.Hits == 0 {
		t.Errorf("shared store never hit: %+v", st)
	}
}
