// Command tesa-pareto traces the Pareto front for one constraint
// corner, printing a CSV of the winning configurations. Two engines:
// the default -front weights sweeps the Eq. (6) objective weights
// (cost vs DRAM power); -front nsga2 evolves a true multi-objective
// population front over MCM cost, DRAM power, AND peak temperature —
// non-dominated sorting with crowding-distance diversity, every
// reported member re-evaluated at full fidelity.
//
// Usage:
//
//	tesa-pareto [-job spec.json]
//	            [-tech 2d|3d] [-freq 400] [-fps 30] [-temp 75]
//	            [-front weights|nsga2] [-points 9] [-pop 24] [-gens 8]
//	            [-grid 32] [-seed 1]
//	            [-faults spec] [-max-failures 0] [-fail-fast]
//	            [-stage-timeout 0] [-metrics] [-trace out.jsonl]
//	            [-pprof addr] [-metrics-addr addr] [-manifest run.jsonl]
//	            [-thermal-fast] [-surrogate-band 3]
//	            [-surrogate] [-surrogate-k 8]
//	            [-memo-dir .tesa-memo] [-starts-parallel]
//
// The config flags and -job are two spellings of one jobspec
// (tesa.jobspec/v1, kind "pareto"): either way the run comes from
// Spec.Resolve, so the same spec drives this command, the library, and
// tesa-server to an identical front. Config flags conflict with -job;
// operational flags (-progress, -memo-dir, telemetry) compose with it.
//
// -surrogate enables the learned ranking surrogate: an online model
// trained from completed evaluations (and replayed from -memo-dir
// segments) that orders candidate moves and offspring
// best-predicted-first. Every proposal still runs the real pipeline,
// so the traced front is unchanged — the model only reduces how many
// full evaluations the search needs. -surrogate-k tunes its
// neighborhood (0 = default).
//
// -thermal-fast runs every weight setting's search on the fast thermal
// path (workspace CG, warm starts, surrogate pre-screen with a
// -surrogate-band guard band); the traced front is unchanged, only
// wall-clock time drops.
//
// All weight settings share one content-addressed memo store: the Eq. 6
// weights enter the objective, not the pipeline stages, so the
// frequency-independent sub-results (systolic profiles, SRAM estimates,
// schedules, thermal coverage) computed for the first weight are reused
// by every later one. -memo-dir persists the store across invocations
// without changing the front. -starts-parallel pools the annealing
// chains; each weight's objective is unchanged, but a tie between chains
// that end on distinct designs of equal objective can resolve to a
// different front point.
//
// With the telemetry flags, all weight settings share one hub, so the
// -metrics summary aggregates stage timings across the whole front and
// the -trace events interleave the per-weight optimizer runs.
//
// Failure handling: design points whose evaluation fails are quarantined
// per weight setting and the sweep continues; the deduplicated union of
// all quarantined points is summarized on stderr at the end, and a run
// that completed with a non-empty ledger exits 4. -faults (or
// TESA_FAULTS) injects deterministic faults for chaos testing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"tesa"
	"tesa/internal/cli"
	"tesa/internal/jobspec"
)

func main() {
	var (
		cfg      = cli.ParetoFlags(flag.CommandLine)
		progress = flag.Bool("progress", false, "stream per-weight incumbents to stderr")
		obs      = cli.ObservabilityFlags()
		mf       = cli.MemoFlagsRegister()
	)
	flag.Parse()

	job, err := cfg.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the front trace; the CSV printed so far
	// remains valid, so a killed run loses only the unswept weights.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if job.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.Deadline)
		defer cancel()
	}

	// The summaries go to stderr so the CSV on stdout stays clean.
	sess, err := obs.Setup("tesa-pareto", os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	store, memoDone, err := mf.Store()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	finish := func(status string) {
		if obs.Metrics {
			fmt.Fprintf(os.Stderr, "memo: %s\n", store.Stats())
		}
		sess.Finish(status)
		if err := memoDone(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}

	sess.SetJob(job)
	sess.Manifest.Set("front", job.ParetoFront)
	// One store and hub across the whole front: the weight settings
	// share every weight-independent sub-result.
	rt := jobspec.Runtime{Store: store, Tel: sess.Tel}

	if job.ParetoFront == "nsga2" {
		runNSGA2(ctx, job, rt, *progress, sess, finish)
		return
	}

	fmt.Println("alpha,beta,arrayDim,sramKBper,icsUM,meshRows,meshCols,peakC,powerW,costUSD,dramW")
	seen := map[tesa.DesignPoint]bool{}
	// Quarantines are per weight setting (each has its own evaluator);
	// the summary reports the deduplicated union across the front.
	poisoned := map[tesa.DesignPoint]tesa.QuarantinedPoint{}
	collect := func(qs []tesa.QuarantinedPoint) {
		for _, q := range qs {
			if _, ok := poisoned[q.Point]; !ok {
				poisoned[q.Point] = q
			}
		}
	}
	for i := 0; i < job.ParetoPoints; i++ {
		weighted := *job
		opts := &weighted.Opts
		opts.Alpha, opts.Beta = jobspec.ParetoWeights(i, job.ParetoPoints)
		ev, err := jobspec.NewEvaluator(&weighted, rt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		optOpt := &tesa.OptimizeOptions{MaxFailures: job.MaxFailures, FailFast: job.FailFast, Parallel: mf.StartWorkers()}
		if *progress {
			alpha, beta := opts.Alpha, opts.Beta
			optOpt.Progress = func(p tesa.Progress) {
				if p.Improved && p.Incumbent != nil {
					fmt.Fprintf(os.Stderr, "alpha=%.3f beta=%.3f: incumbent %v obj %.4f after %d evaluations\n",
						alpha, beta, p.Incumbent.Point, p.Incumbent.Objective, p.Done)
				}
			}
		}
		optOpt.Progress = sess.Progress(optOpt.Progress)
		res, err := ev.OptimizeContext(ctx, job.Space, job.Seed, optOpt)
		if res != nil {
			// res is nil when the run is canceled mid-weight; reading
			// its ledger unconditionally would crash on SIGINT.
			collect(res.Poisoned)
		}
		switch {
		case errors.Is(err, tesa.ErrNoFeasibleStart):
			fmt.Fprintf(os.Stderr, "alpha=%.2f beta=%.2f: no solution\n", opts.Alpha, opts.Beta)
			continue
		case errors.Is(err, context.Canceled):
			fmt.Fprintf(os.Stderr, "interrupted at weight %d of %d; CSV above is complete for the swept weights\n",
				i, job.ParetoPoints)
			finish("interrupted")
			os.Exit(130)
		case err != nil:
			if errors.Is(err, tesa.ErrTooManyFailures) {
				cli.FailureSummary(os.Stderr, ev.QuarantineLedger())
			}
			fmt.Fprintln(os.Stderr, err)
			finish("error")
			os.Exit(1)
		}
		b := res.Best
		marker := ""
		if seen[b.Point] {
			marker = " (dup)"
		}
		seen[b.Point] = true
		fmt.Printf("%.3f,%.3f,%d,%d,%d,%d,%d,%.2f,%.2f,%.2f,%.2f%s\n",
			opts.Alpha, opts.Beta, b.Point.ArrayDim, b.Point.SRAMKB(), b.Point.ICSUM,
			b.Mesh.Rows, b.Mesh.Cols, b.PeakTempC, b.TotalPowerW, b.MCMCost.Total, b.DRAMPowerW, marker)
	}
	ledger := make([]tesa.QuarantinedPoint, 0, len(poisoned))
	for _, q := range poisoned {
		ledger = append(ledger, q)
	}
	sort.Slice(ledger, func(i, j int) bool { return ledger[i].Point.Less(ledger[j].Point) })
	cli.FailureSummary(os.Stderr, ledger)
	if len(ledger) > 0 {
		finish("ok-quarantined")
		os.Exit(cli.ExitQuarantined)
	}
	finish("ok")
}

// runNSGA2 executes the -front nsga2 engine: one evaluator, one
// evolved population, and a CSV of the full-fidelity non-dominated
// front over cost, DRAM power, and peak temperature. An infinite
// crowding distance (an objective-extreme member) prints as "inf".
func runNSGA2(ctx context.Context, job *jobspec.Resolved, rt jobspec.Runtime, progress bool,
	sess *cli.Session, finish func(string)) {
	ev, err := jobspec.NewEvaluator(job, rt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fo := &tesa.FrontOptions{Pop: job.ParetoPop, Gens: job.ParetoGens}
	if progress {
		fo.Progress = func(p tesa.Progress) {
			if p.Incumbent != nil {
				fmt.Fprintf(os.Stderr, "generation %d of %d: cost extreme %v after %d evaluations\n",
					p.Done, p.Total, p.Incumbent.Point, ev.Evaluations())
			}
		}
	}
	fo.Progress = sess.Progress(fo.Progress)
	frontMembers, err := ev.NSGA2FrontContext(ctx, job.Space, job.Seed, fo)
	switch {
	case errors.Is(err, tesa.ErrNoFeasibleStart):
		fmt.Fprintln(os.Stderr, "no feasible configuration: the front is empty")
		cli.FailureSummary(os.Stderr, ev.QuarantineLedger())
		finish("ok")
		return
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "interrupted; no front printed")
		finish("interrupted")
		os.Exit(130)
	case err != nil:
		fmt.Fprintln(os.Stderr, err)
		finish("error")
		os.Exit(1)
	}
	fmt.Println("arrayDim,sramKBper,icsUM,meshRows,meshCols,peakC,powerW,costUSD,dramW,crowding")
	for _, m := range frontMembers {
		b := m.Eval
		crowding := fmt.Sprintf("%.4f", m.Crowding)
		if math.IsInf(m.Crowding, 1) {
			crowding = "inf"
		}
		fmt.Printf("%d,%d,%d,%d,%d,%.2f,%.2f,%.2f,%.2f,%s\n",
			b.Point.ArrayDim, b.Point.SRAMKB(), b.Point.ICSUM,
			b.Mesh.Rows, b.Mesh.Cols, b.PeakTempC, b.TotalPowerW, b.MCMCost.Total, b.DRAMPowerW, crowding)
	}
	if hits, misses, ranked := ev.SurrogateStats(); hits+misses > 0 {
		fmt.Fprintf(os.Stderr, "surrogate: %d ranked decisions, %d cold fallbacks, %d candidates scored\n",
			hits, misses, ranked)
	}
	ledger := ev.QuarantineLedger()
	cli.FailureSummary(os.Stderr, ledger)
	if len(ledger) > 0 {
		finish("ok-quarantined")
		os.Exit(cli.ExitQuarantined)
	}
	finish("ok")
}
