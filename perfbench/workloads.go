package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"tesa/internal/core"
	"tesa/internal/jobspec"
	"tesa/internal/memo"
	"tesa/internal/telemetry"
)

// workload is one named benchmark input: how to set it up and what one
// unit of its work is.
type workload struct {
	name string
	why  string
	// unit says what one unit of work is. unitSec is the part of
	// --seconds one unit is given, which turns --seconds into a fixed
	// unit count. It is shorter than a unit takes where the workload's
	// run-to-run noise needs more units than --seconds would allow.
	unit    string
	unitSec float64
	// maxUnits caps the unit count (0 = no cap).
	maxUnits int
	// setupReps is how many times a run sets the workload up.
	setupReps int
	// rules are the steady-load rules the workload keeps.
	rules []string
	// setup builds a ready instance; rec is nil for an untraced instance.
	setup func(ctx context.Context, seed int64, rec *recorder, parent span) (instance, error)
}

// units is the fixed number of units a run of nominal length seconds does.
func (w *workload) units(seconds int) int {
	n := max(1, int(math.Round(float64(seconds)/w.unitSec)))
	if w.maxUnits > 0 {
		n = min(n, w.maxUnits)
	}
	return n
}

// instance is a set-up workload.
type instance interface {
	// unit runs one unit of work and checks its answers. An error means
	// the harness could not run it; a wrong answer counts as failed.
	unit(ctx context.Context, parent span) (unitResult, error)
	// resolveTimes are the harness-timed Parse+Resolve calls, in µs.
	resolveTimes() []float64
	// retained is the number of jobs a server instance still holds.
	retained() int
	close() error
}

// unitResult is what one unit did.
type unitResult struct {
	wall              float64
	attempted, failed int
	// latencies are client-observed job latencies (serve-warm).
	latencies []float64
	// jobs and sample are filled for traced units only.
	jobs   []jobRecord
	sample *sample
}

var workloads = []*workload{
	{
		name:      "optimize-2d",
		why:       "the default tesa corner as one optimize job: time to the answer, steady thermal CG, anneal chains, memo writes",
		unit:      "one optimize job on a fresh memo store",
		unitSec:   9,
		setupReps: 51,
		rules: []string{
			"one annealing chain at a time (Runtime.Parallel 1); the stencil fan-out uses at most GOMAXPROCS goroutines",
			"a fresh memo store per job",
			"fixed work: units = round(seconds/9) jobs (3 at 28 s), no time-budgeted phase",
		},
		setup: batchSetup(optimize2D, checkOptimize2D),
	},
	{
		name:      "sweep-3d",
		why:       "an exhaustive sweep of the Table II space on 3-D stacks: sweep throughput and the thermal bound screen",
		unit:      "one 2,541-point sweep on a fresh memo store",
		unitSec:   5.6,
		setupReps: 51,
		rules: []string{
			"the sweep's own shard pool: GOMAXPROCS workers",
			"a fresh memo store per sweep",
			"fixed work: units = round(seconds/5.6) sweeps (5 at 28 s), no time-budgeted phase",
		},
		setup: batchSetup(sweep3D, checkSweep3D),
	},
	{
		name:    "serve-warm",
		why:     "tesa-server on a warm process-wide store, 2 closed-loop clients: memo reads, jobspec, HTTP/SSE and the queue",
		unit:    "a batch of 250 jobs (125 optimize, 50 sweep, 75 pareto) from 2 closed-loop clients",
		unitSec: 1.25,
		// tesa-server retains every finished job (about 150 KB each), so
		// more jobs would only grow memory; 2,000 keep p99 well sampled.
		maxUnits:  8,
		setupReps: 5,
		rules: []string{
			"server.Config{Workers: 2, Parallel: 1}; 2 closed-loop clients, each waits for its result before the next submit",
			"one process-wide memo store, filled in set-up by one cold run of every pool spec; zero misses when timed",
			"fixed work: units = min(8, round(seconds/1.25)) batches of 250 seeded jobs (8 at 28 s), no time-budgeted phase",
			"p99 reported only with at least 1,000 samples (10 beyond it)",
		},
		setup: serveSetup,
	},
	{
		name:      "sim-tenants",
		why:       "one sim job on the transient stepper: U-Net Poisson 38 rps plus MobileNet diurnal 10 rps, 60 s, 4 draws",
		unit:      "one sim job (6,000 transient steps)",
		unitSec:   7,
		setupReps: 51,
		rules: []string{
			"a single goroutine: the DES engine and transient stepper are sequential",
			"a fresh memo store per job",
			"fixed work: units = round(seconds/7) jobs (4 at 28 s), no time-budgeted phase",
		},
		setup: batchSetup(simTenants, checkSimTenants),
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// The batch workloads' job documents. They take no seed: their answers
// are recorded below, so every seed runs the same job.
const (
	// optimize2D is the default tesa corner.
	optimize2D = `{"version": "tesa.jobspec/v1", "kind": "optimize",
  "options": {"tech": "2d", "freq_mhz": 400, "grid": 32, "thermal_fast": true},
  "constraints": {"fps": 30, "power_w": 15, "temp_c": 75},
  "space": {"preset": "default"}, "seed": 1}`

	// sweep3D is the full Table II space (121 x 21 = 2,541 points) in 3-D.
	sweep3D = `{"version": "tesa.jobspec/v1", "kind": "sweep",
  "options": {"tech": "3d", "freq_mhz": 400, "grid": 32, "thermal_fast": true},
  "constraints": {"fps": 30, "power_w": 15, "temp_c": 75},
  "space": {"preset": "default"}}`

	// simTenants is the ranking-flip load of EXPERIMENTS.md plus a
	// diurnal tenant, with a throttle trip low enough to exercise DVFS.
	simTenants = `{"version": "tesa.jobspec/v1", "kind": "sim",
  "options": {"tech": "2d", "freq_mhz": 400, "grid": 16},
  "constraints": {"fps": 15, "temp_c": 75}, "seed": 7,
  "sim": {"array_dim": 200, "ics_um": 1700, "duration_sec": 60, "thermal_dt_sec": 0.05,
    "tenants": [
      {"name": "unet", "network": "U-Net", "arrival": {"kind": "poisson", "rate_rps": 38}, "sla_sec": 0.1},
      {"name": "mobilenet", "network": "MobileNet", "arrival": {"kind": "diurnal", "rate_rps": 10}, "sla_sec": 0.1}],
    "throttle": {"trip_c": 52}, "draws": 4}}`
)

// Recorded answers. Objectives depend only on cost and DRAM power, so
// they repeat bit for bit; temperatures pass through warm-started CG,
// whose last bits move with the reduction order, so the optimize-2d
// peak is checked at two decimals.
const (
	optimize2DObjective = 2.5535121051397645
	optimize2DPeak      = "71.18"
	sweep3DObjective    = 3.412653011803216
)

// simScore is sim-tenants' recorded score; the transient stepper is
// sequential, so it repeats exactly.
var simScore = core.SimScore{
	Draws:             4,
	MeanSLARate:       0.7919497296627188,
	MaxSLARate:        0.7964174991388219,
	MeanThrottledFrac: 0.99875,
	ThrottleEvents:    12,
	MeanPeakC:         58.974040801431215,
	MaxPeakC:          60.1399724081881,
	WorstP99Sec:       39.206005545836035,
}

// errCheck marks a wrong answer, as opposed to a job that failed to run.
var errCheck = errors.New("answer check failed")

func checkOptimize2D(res *jobspec.Result) error {
	if err := checkBest(res, 250, 900, 2, 1, optimize2DObjective); err != nil {
		return err
	}
	if got := fmt.Sprintf("%.2f", res.Best.PeakTempC); got != optimize2DPeak {
		return fmt.Errorf("%w: peak %s C, want %s C", errCheck, got, optimize2DPeak)
	}
	return nil
}

func checkSweep3D(res *jobspec.Result) error {
	return checkBest(res, 188, 600, 2, 2, sweep3DObjective)
}

func checkSimTenants(res *jobspec.Result) error {
	switch {
	case res == nil || !res.Found || res.Sim == nil:
		return fmt.Errorf("%w: no sim outcome", errCheck)
	case res.Sim.ArrayDim != 200 || res.Sim.ICSUM != 1700:
		return fmt.Errorf("%w: simulated %d/%d, want 200/1700", errCheck, res.Sim.ArrayDim, res.Sim.ICSUM)
	case res.Sim.Score != simScore:
		return fmt.Errorf("%w: score %+v, want %+v", errCheck, res.Sim.Score, simScore)
	}
	return nil
}

// checkBest checks a winner's design point, mesh and exact objective.
func checkBest(res *jobspec.Result, dim, ics, rows, cols int, obj float64) error {
	if res == nil || !res.Found || res.Best == nil {
		return fmt.Errorf("%w: no winner", errCheck)
	}
	b := res.Best
	if b.ArrayDim != dim || b.ICSUM != ics || b.MeshRows != rows || b.MeshCols != cols || b.Objective != obj {
		return fmt.Errorf("%w: winner %dx%d ICS %d mesh %dx%d objective %v, want %dx%d ICS %d mesh %dx%d objective %v",
			errCheck, b.ArrayDim, b.ArrayDim, b.ICSUM, b.MeshRows, b.MeshCols, b.Objective,
			dim, dim, ics, rows, cols, obj)
	}
	return nil
}

// batch is a set-up batch workload: one resolved job run per unit.
type batch struct {
	resolved  *jobspec.Resolved
	check     func(*jobspec.Result) error
	rec       *recorder
	resolveUS []float64
}

// batchSetup parses and resolves the job document and builds the
// job's evaluator once, the cold cost every CLI user pays before the
// search starts.
func batchSetup(doc string, check func(*jobspec.Result) error) func(context.Context, int64, *recorder, span) (instance, error) {
	return func(_ context.Context, _ int64, rec *recorder, parent span) (instance, error) {
		t := time.Now()
		sp := rec.open("jobspec.parse", "", parent)
		spec, err := jobspec.Parse([]byte(doc))
		sp.close()
		if err != nil {
			return nil, err
		}
		sp = rec.open("jobspec.resolve", "", parent)
		r, err := spec.Resolve("")
		sp.close()
		if err != nil {
			return nil, err
		}
		resolveUS := time.Since(t).Seconds() * 1e6
		sp = rec.open("jobspec.new_evaluator", "", parent)
		_, err = jobspec.NewEvaluator(r, jobspec.Runtime{})
		sp.close()
		if err != nil {
			return nil, err
		}
		return &batch{resolved: r, check: check, rec: rec, resolveUS: []float64{resolveUS}}, nil
	}
}

func (b *batch) unit(ctx context.Context, parent span) (unitResult, error) {
	store := memo.NewStore()
	var tel *telemetry.Telemetry
	if b.rec != nil {
		tel = telemetry.New(nil)
	}
	sp := b.rec.open("jobspec.run", "", parent)
	t := time.Now()
	res, err := jobspec.Run(ctx, b.resolved, jobspec.Runtime{Store: store, Tel: tel, Parallel: 1})
	u := unitResult{wall: time.Since(t).Seconds(), attempted: 1}
	sp.close()
	if err == nil {
		err = b.check(res)
	}
	if err != nil {
		u.failed = 1
		fmt.Fprintln(os.Stderr, "perfbench: job failed:", err)
	}
	if tel != nil {
		u.sample = newSample(telemetry.MetricsSnapshot{}, tel.Registry().Export(), memo.Stats{}, store.Stats(), store.Len())
	}
	return u, nil
}

func (b *batch) resolveTimes() []float64 { return b.resolveUS }
func (b *batch) retained() int           { return 0 }
func (b *batch) close() error            { return nil }
