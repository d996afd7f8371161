package core

import (
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"tesa/internal/dnn"
	"tesa/internal/memo"
	"tesa/internal/telemetry"
)

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

// TestMemoEvaluationsBitIdentical: every evaluation served through a
// warm memo store is bit-identical to one computed from scratch. The
// warm side is one evaluator sweeping gateSpace on one store, so later
// points reuse the profiles, SRAM, schedule and coverage records of
// earlier ones; the reference is a fresh evaluator per point, whose
// empty store has nothing to serve, so every stage is computed. All
// scalars (compared through the NaN-safe record encoding) and the
// structural outputs (schedule, placement) must agree, in both DSE and
// reporting mode.
func TestMemoEvaluationsBitIdentical(t *testing.T) {
	fresh := func() *Evaluator { return testEvaluator(t, Tech2D, 400, 15, 85) }
	mem := fresh()
	pts := gateSpace().Enumerate()
	for _, p := range pts {
		rev, rerr := fresh().Evaluate(p)
		mev, merr := mem.Evaluate(p)
		if (rerr == nil) != (merr == nil) {
			t.Fatalf("%v: error disagreement: fresh %v, warm %v", p, rerr, merr)
		}
		if rerr != nil {
			continue
		}
		if a, b := recordJSON(t, rev), recordJSON(t, mev); a != b {
			t.Errorf("%v: DSE evaluation diverged:\nfresh %s\nwarm  %s", p, a, b)
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
	p := pts[0]
	peer := fresh()
	peer.UseMemo(mem.Memo())
	before := mem.MemoStats().Kinds["eval"].Hits
	pev, err := peer.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	if mem.MemoStats().Kinds["eval"].Hits == before {
		t.Error("peer evaluation did not hit the eval store")
	}
	if rev, err := fresh().Evaluate(p); err == nil {
		if recordJSON(t, pev) != recordJSON(t, rev) {
			t.Error("store-served evaluation diverged from the fresh one")
		}
	}

	// Reporting mode: full evaluations agree too, and upgrade the store
	// entry rather than being served by a DSE record.
	rfull, err := fresh().EvaluateFull(p)
	if err != nil {
		t.Fatal(err)
	}
	mfull, err := mem.EvaluateFull(p)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := recordJSON(t, rfull), recordJSON(t, mfull); a != b {
		t.Errorf("full evaluation diverged:\nfresh %s\nwarm  %s", a, b)
	}
	if !reflect.DeepEqual(rfull.Schedule, mfull.Schedule) || !reflect.DeepEqual(rfull.Placement, mfull.Placement) {
		t.Error("full evaluation structures diverged")
	}
	if mfull.Compact() {
		t.Error("full evaluation reported compact")
	}
}

// TestMemoOptimizeIdenticalTrajectory: the optimizer's whole trajectory
// — winner, objective, evaluation and exploration counts, and every
// per-start result — is identical on a fresh store, on a store another
// evaluator already warmed (whole evaluations served, not computed),
// and with pooled parallel chains.
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
		warm bool
		opt  *OptimizeOptions
	}{
		{"warm store", true, nil},
		{"parallel", false, &OptimizeOptions{Parallel: 4}},
	}
	for _, run := range runs {
		mem := testEvaluator(t, Tech2D, 400, 15, 85)
		if run.warm {
			mem.UseMemo(ref.Memo())
		}
		before := ref.MemoStats().Kinds["eval"].Hits
		res, err := mem.OptimizeContext(context.Background(), space, 3, run.opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("%s: found nothing", run.name)
		}
		if run.warm && ref.MemoStats().Kinds["eval"].Hits == before {
			t.Errorf("%s: no evaluation was served from the warmed store", run.name)
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

// TestMemoFaultMatrixTrajectory: with a fault-injection plan armed,
// pooled parallel chains — which race on points and meet in the store's
// single-flight — take the exact same trajectory as the default
// schedule: injection decisions are per point, eval records are keyed
// by the plan, failures are never stored, and the quarantine ledgers
// match — across a stack of fault specs.
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

		par := testEvaluator(t, Tech2D, 400, 15, 85)
		par.InjectFaults(injectPlan(t, spec))
		res, err := par.OptimizeContext(context.Background(), space, 3, &OptimizeOptions{Parallel: 4})
		if (rerr == nil) != (err == nil) {
			t.Fatalf("%q: error disagreement: ref %v, parallel %v", spec, rerr, err)
		}
		if res.Found != refRes.Found {
			t.Fatalf("%q: found disagreement", spec)
		}
		if refRes.Found && (res.Best.Point != refRes.Best.Point || res.Best.Objective != refRes.Best.Objective) {
			t.Errorf("%q: winner changed under faults", spec)
		}
		if res.Evaluations != refRes.Evaluations || res.Quarantined != refRes.Quarantined {
			t.Errorf("%q: %d evaluations / %d quarantined, want %d / %d",
				spec, res.Evaluations, res.Quarantined, refRes.Evaluations, refRes.Quarantined)
		}
		if !reflect.DeepEqual(res.Poisoned, refRes.Poisoned) {
			t.Errorf("%q: quarantine ledger diverged:\nparallel %v\nref      %v",
				spec, res.Poisoned, refRes.Poisoned)
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

// TestMemoSingleFlightDefaultEvaluator: a default evaluator — no UseMemo,
// just the private store NewEvaluator attaches — runs the pipeline once
// for a point that N goroutines request at the same time. The injected
// systolic latency holds the first computation open so every other call
// arrives while it is in flight and waits on it instead of recomputing.
func TestMemoSingleFlightDefaultEvaluator(t *testing.T) {
	const n = 4
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	e.InjectFaults(injectPlan(t, "latency@systolic:delay=300ms"))
	tel := telemetry.New(nil)
	e.Instrument(tel)
	p := DesignPoint{ArrayDim: 200, ICSUM: 500}

	start := make(chan struct{})
	evs := make([]*Evaluation, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			evs[i], errs[i] = e.Evaluate(p)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		if evs[i] != evs[0] {
			t.Errorf("call %d got a different evaluation than call 0", i)
		}
	}
	if runs := tel.Registry().Histogram("pipeline.total").Snapshot().Count; runs != 1 {
		t.Errorf("pipeline ran %d times for one point, want 1", runs)
	}
	ks := e.MemoStats().Kinds["eval"]
	if ks.Misses != 1 || ks.Deduped != n-1 {
		t.Errorf("eval store: %d misses / %d deduped, want 1 / %d", ks.Misses, ks.Deduped, n-1)
	}
}

// TestMemoSharedFailureQuarantinedPerEvaluator: two instrumented
// evaluators share a store and evaluate one injected-failing point at
// the same time. Single-flight hands both the same *EvalError; each
// evaluator must still quarantine the point in its own ledger, and
// stamping the flight trace must not write the shared error (the -race
// target for that path).
func TestMemoSharedFailureQuarantinedPerEvaluator(t *testing.T) {
	const spec = "latency@systolic:delay=200ms;error@sched:dim=200"
	store := memo.NewStore()
	evs := []*Evaluator{testEvaluator(t, Tech2D, 400, 15, 85), testEvaluator(t, Tech2D, 400, 15, 85)}
	for _, e := range evs {
		e.UseMemo(store)
		e.InjectFaults(injectPlan(t, spec))
		e.Instrument(telemetry.New(nil))
	}
	p := DesignPoint{ArrayDim: 200, ICSUM: 500}

	start := make(chan struct{})
	errs := make([]error, len(evs))
	var wg sync.WaitGroup
	for i, e := range evs {
		wg.Add(1)
		go func(i int, e *Evaluator) {
			defer wg.Done()
			<-start
			_, errs[i] = e.Evaluate(p)
		}(i, e)
	}
	close(start)
	wg.Wait()

	if ks := store.Stats().Kinds["eval"]; ks.Misses != 1 || ks.Deduped != 1 {
		t.Errorf("eval store: %d misses / %d deduped, want 1 / 1 (one shared computation)", ks.Misses, ks.Deduped)
	}
	for i, e := range evs {
		ee, ok := asEvalError(errs[i])
		if !ok || ee.Stage != stageSched || ee.Point != p {
			t.Fatalf("evaluator %d: got %v, want an EvalError at stage sched for %v", i, errs[i], p)
		}
		ledger := e.QuarantineLedger()
		if len(ledger) != 1 || ledger[0].Point != p || ledger[0].Stage != stageSched || ledger[0].Reason != "error" {
			t.Errorf("evaluator %d: ledger %v, want exactly %v at stage sched", i, ledger, p)
		}
		// A revisit is served from this evaluator's own ledger.
		if _, err := e.Evaluate(p); err != errs[i] {
			t.Errorf("evaluator %d: revisit returned %v, want the ledger entry %v", i, err, errs[i])
		}
	}
}

// TestOptimizeParallelTieSameObjective pins the documented difference
// between the start schedules on a corner where it shows: the default
// tesa corner on the fast thermal path at grid 16, seed 3. Two starts
// end on distinct designs of equal objective; the default schedule
// breaks that tie by start index and the pool by DesignPoint.Less, so
// the reported design may differ, but the objective must be bit-equal.
func TestOptimizeParallelTieSameObjective(t *testing.T) {
	opts := DefaultOptions()
	opts.Grid = 16
	opts.ThermalFast = true
	run := func(parallel int) *OptimizeResult {
		e, err := NewEvaluator(dnn.ARVRWorkload(), opts, DefaultConstraints(), Models{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.OptimizeContext(context.Background(), DefaultSpace(), 3, &OptimizeOptions{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("parallel=%d found nothing", parallel)
		}
		return res
	}
	seq, pool := run(0), run(4)
	if math.Float64bits(seq.Best.Objective) != math.Float64bits(pool.Best.Objective) {
		t.Errorf("objectives differ: parallel=0 %v obj %v, parallel=4 %v obj %v",
			seq.Best.Point, seq.Best.Objective, pool.Best.Point, pool.Best.Objective)
	}
	t.Logf("parallel=0 reports %v, parallel=4 reports %v (objective %v)",
		seq.Best.Point, pool.Best.Point, seq.Best.Objective)
}
