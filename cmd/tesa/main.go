// Command tesa runs the TESA optimizer for one constraint corner and
// prints the chosen MCM.
//
// Usage:
//
//	tesa [-job spec.json]
//	     [-tech 2d|3d] [-freq 400] [-fps 30] [-temp 75] [-power 15]
//	     [-interposer 8] [-grid 32] [-seed 1] [-alpha 1] [-beta 1]
//	     [-faults spec] [-max-failures 0] [-fail-fast] [-stage-timeout 0]
//	     [-metrics] [-trace out.jsonl] [-pprof addr]
//	     [-metrics-addr addr] [-manifest run.jsonl]
//	     [-thermal-fast] [-surrogate-band 3]
//	     [-surrogate] [-surrogate-k 8]
//	     [-memo-dir .tesa-memo] [-starts-parallel]
//
// The config flags (-tech, -grid, ...) and -job are two spellings of one
// jobspec (tesa.jobspec/v1, kind "optimize"): the flags fill a spec,
// -job reads one from a file, and either way the run comes from
// Spec.Resolve, so the same spec drives this command, the library, and
// tesa-server to bit-identical results. Config flags conflict with
// -job; operational flags (-progress, -deadline, -memo-dir, the telemetry
// flags) compose with it, and an explicit -deadline overrides the
// spec's deadline_sec.
//
// -thermal-fast switches the search to the fast thermal path
// (allocation-free workspace CG, warm-started solves, surrogate
// pre-screening with a -surrogate-band guard band); reported tables
// always come from full-fidelity evaluations, so the flag changes
// wall-clock time, not results.
//
// -surrogate enables the learned ranking surrogate: an online k-NN/RBF
// model over completed evaluations (trained in-process and replayed
// from -memo-dir segments at startup) that scores candidate annealing
// moves and seed pools, so the search evaluates predicted-good points
// first. Every proposal still runs the real pipeline and the winner is
// always a full-fidelity evaluation — the flag reduces how many full
// evaluations reaching the optimum takes, not what is reported.
// -surrogate-k tunes the model neighborhood and the per-step ranked
// candidate count (0 = default).
//
// Pipeline sub-results (systolic profiles, SRAM estimates, schedules,
// coverage maps, whole evaluations) are memoized in a content-addressed
// store shared by all annealing chains; -memo-dir additionally persists
// the store so repeated invocations with the same models warm-start
// from disk, changing wall-clock time only. -starts-parallel runs the
// annealing chains through a worker pool. It reaches the same objective
// as the default schedule, but breaks ties between chains that end on
// distinct designs of equal objective differently, so it can report a
// different (equally good) design.
//
// The output reports the winning design point, its derived mesh and SRAM
// capacity, and the full evaluation (peak temperature, power, cost, DRAM
// power, per-chiplet schedule).
//
// Observability: -metrics prints an end-of-run summary (per-stage
// latency percentiles, evals/sec, cache hit rate), -trace streams
// annealer-level JSONL events, -pprof serves net/http/pprof,
// -metrics-addr serves live /metrics (Prometheus text), /debug/vars,
// /progress and /debug/pprof while the search runs, and -manifest
// writes the run manifest (command, flags, space fingerprint, seeds,
// quarantine tallies, wall/CPU time) as JSONL start/end records.
//
// Failure handling: a design point whose evaluation fails (panic, NaN,
// diverged thermal solve, timeout) is quarantined and the search
// continues around it; a run that still finds a solution but quarantined
// points prints a failure summary and exits 4. -max-failures bounds the
// quarantine count, -fail-fast aborts on the first failure, and -faults
// (or TESA_FAULTS) injects deterministic faults for chaos testing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tesa"
	"tesa/internal/cli"
	"tesa/internal/jobspec"
)

func main() {
	var (
		cfg      = cli.OptimizeFlags(flag.CommandLine)
		progress = flag.Bool("progress", false, "stream incumbent improvements to stderr")
		obs      = cli.ObservabilityFlags()
		mf       = cli.MemoFlagsRegister()
	)
	flag.Parse()

	job, err := cfg.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// SIGINT/SIGTERM (and -deadline, or the spec's deadline_sec) cancel
	// the context; the annealers observe it between evaluations and wind
	// down promptly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if job.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.Deadline)
		defer cancel()
	}

	sess, err := obs.Setup("tesa", os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	store, memoDone, err := mf.Store()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// finish finalizes the run manifest and flushes telemetry and the
	// on-disk memo cache before any exit path (os.Exit skips defers).
	finish := func(status string) {
		if obs.Metrics {
			fmt.Printf("memo: %s\n", store.Stats())
		}
		sess.Finish(status)
		if err := memoDone(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}

	ev, err := jobspec.NewEvaluator(job, jobspec.Runtime{Store: store, Tel: sess.Tel})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sess.SetJob(job)
	opts, cons, w, space := job.Opts, job.Cons, job.Workload, job.Space

	fmt.Printf("TESA: %s MCM at %.0f MHz for the %d-DNN %s workload\n", opts.Tech, opts.FreqHz/1e6, len(w.Networks), w.Name)
	fmt.Printf("constraints: %.0f fps, %.0f W, %.0f C, %.0fx%.0f mm interposer\n\n",
		cons.FPS, cons.PowerBudgetW, cons.TempBudgetC, cons.InterposerMM, cons.InterposerMM)

	optOpt := &tesa.OptimizeOptions{MaxFailures: job.MaxFailures, FailFast: job.FailFast, Parallel: mf.StartWorkers()}
	if *progress {
		optOpt.Progress = func(p tesa.Progress) {
			if p.Improved && p.Incumbent != nil {
				fmt.Fprintf(os.Stderr, "incumbent after %d evaluations: %v, objective %.4f  [%.1fs]\n",
					p.Done, p.Incumbent.Point, p.Incumbent.Objective, p.Elapsed.Seconds())
			}
		}
	}
	optOpt.Progress = sess.Progress(optOpt.Progress)

	start := time.Now()
	res, err := ev.OptimizeContext(ctx, space, job.Seed, optOpt)
	switch {
	case errors.Is(err, tesa.ErrNoFeasibleStart):
		// res carries the exploration counters; reported below.
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(os.Stderr, "search aborted: %v\n", err)
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
	elapsed := time.Since(start)

	if !res.Found {
		fmt.Printf("SOLUTION DOES NOT EXIST under these constraints\n")
		fmt.Printf("(explored %d of %d design vectors in %.1fs)\n", res.Explored, space.Size(), elapsed.Seconds())
		fmt.Println("remedial options: relax the thermal budget, reduce frequency, or enlarge the interposer")
		cli.FailureSummary(os.Stderr, res.Poisoned)
		finish("no-solution")
		os.Exit(3)
	}

	best := res.Best
	fmt.Printf("winning MCM:  %v\n", best.Point)
	fmt.Printf("mesh:         %v (%d chiplets)\n", best.Mesh, best.Mesh.Count())
	fmt.Printf("chiplet:      %.2f x %.2f mm (array %.2f mm2, SRAM %.2f mm2)\n",
		best.Chiplet.WidthMM, best.Chiplet.HeightMM, best.Chiplet.ArrayMM2, best.Chiplet.SRAMMM2)
	fmt.Printf("peak temp:    %.2f C (budget %.0f C)\n", best.PeakTempC, cons.TempBudgetC)
	fmt.Printf("power:        %.2f W total (%.2f dynamic + %.2f leakage; budget %.0f W)\n",
		best.TotalPowerW, best.DynamicPowerW, best.LeakageW, cons.PowerBudgetW)
	fmt.Printf("latency:      %.1f ms makespan (%.2fx of the %.0f fps budget)\n",
		best.MakespanSec*1e3, best.LatencyFactor, cons.FPS)
	fmt.Printf("MCM cost:     $%.2f (dies $%.2f, interposer $%.2f, bonding $%.2f, stacking $%.2f)\n",
		best.MCMCost.Total, best.MCMCost.ChipletDies, best.MCMCost.Interposer, best.MCMCost.Bonding, best.MCMCost.Stacking)
	fmt.Printf("DRAM power:   %.2f W over %d channels\n", best.DRAMPowerW, best.DRAMChannels)
	fmt.Printf("throughput:   %.2f TOPS effective, %.2f TOPS peak\n", best.OPS/1e12, best.PeakOPS/1e12)
	fmt.Printf("objective:    %.4f (Eq. 6, alpha=%.2g beta=%.2g)\n\n", best.Objective, opts.Alpha, opts.Beta)

	fmt.Println("schedule (non-preemptive, corner-first):")
	for c, dnns := range best.Schedule.ChipletDNNs {
		fmt.Printf("  chiplet %d:", c)
		for _, d := range dnns {
			fmt.Printf(" %s", w.Networks[d].Name)
		}
		fmt.Println()
	}
	fmt.Printf("\nsearch: %d evaluations, %d distinct points (%.1f%% of the space, %.1f%% cache hits), %.1fs\n",
		res.Evaluations, res.Explored, 100*float64(res.Explored)/float64(space.Size()),
		100*res.CacheHitRate, elapsed.Seconds())
	if res.Screened > 0 {
		fmt.Printf("fast path: %d candidates rejected by the surrogate pre-screen without a grid solve\n", res.Screened)
	}
	if hits, misses, ranked := ev.SurrogateStats(); hits+misses > 0 {
		fmt.Printf("surrogate: %d ranked decisions (%d candidates scored), %d cold fallbacks\n",
			hits, ranked, misses)
	}
	fmt.Println()
	fmt.Print(tesa.FloorplanASCII(best))
	cli.FailureSummary(os.Stderr, res.Poisoned)
	if res.Quarantined > 0 {
		finish("ok-quarantined")
		os.Exit(cli.ExitQuarantined)
	}
	finish("ok")
}
