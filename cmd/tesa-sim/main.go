// Command tesa-sim drives one MCM design point through a dynamic
// multi-tenant workload: seeded arrival processes feed per-chiplet
// queues, utilization windows become piecewise-constant power traces
// for the transient thermal solver, and a temperature-triggered DVFS
// governor closes the loop. It reports what the steady-state evaluation
// cannot see — SLA tail-latency violations, throttle events, and the
// temperature envelope under bursts.
//
// Usage:
//
//	tesa-sim -dim 200 -ics 1700 -duration 10 \
//	         -tenant ar:MobileNet:diurnal:10:0.1 \
//	         -tenant vr:ResNet-50:poisson:5:0.1 \
//	         [-tech 2d|3d] [-freq 400] [-fps 30] [-temp 75] [-grid 88]
//	         [-dt 0.05] [-seed 1] [-draws 1] [-trip 0] [-events log.jsonl]
//	         [-json] [-job spec.json]
//	         [-metrics] [-trace out.jsonl] [-pprof addr]
//	         [-metrics-addr addr] [-manifest run.jsonl]
//
// Each -tenant is name:network:kind:rateRPS:slaSec, where kind is
// poisson, diurnal, or mmpp (richer arrival shapes — diurnal swing and
// period, MMPP burst rates and holding times — are available through a
// -job spec). -trip 0 trips the throttle at the -temp budget. -events
// writes the simulation's event log as JSONL; identically-seeded runs
// write bit-identical logs. -draws N scores the point over N seeded
// scenario draws and reports the distribution aggregate.
//
// The config flags and -job are two spellings of one jobspec
// (tesa.jobspec/v1, kind "sim"): either way the run comes from
// Spec.Resolve, exactly as tesa-server runs the same spec. Config flags
// conflict with -job; -events, -json and the telemetry flags compose.
//
// Exit codes: 0 ok, 1 error (configuration errors included), 3 the
// point does not fit the interposer.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"tesa/internal/cli"
	"tesa/internal/jobspec"
)

func main() {
	var (
		cfg     = cli.SimFlags(flag.CommandLine)
		events  = flag.String("events", "", "write the simulation event log as JSONL to this file")
		jsonOut = flag.Bool("json", false, "print the full wire-form result as JSON")
		obs     = cli.ObservabilityFlags()
	)
	flag.Parse()

	sess, err := obs.Setup("tesa-sim", os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	job, err := cfg.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		sess.Finish("error")
		os.Exit(1)
	}
	point, scenario, nDraws := job.SimPoint, job.Scenario, job.SimDraws
	sess.Manifest.Set("point", fmt.Sprintf("%dx%d@%d", point.ArrayDim, point.ArrayDim, point.ICSUM))
	sess.Manifest.Set("scenario_seed", scenario.Seed)
	sess.Manifest.Set("draws", nDraws)

	ev, err := jobspec.NewEvaluator(job, jobspec.Runtime{Tel: sess.Tel})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		sess.Finish("error")
		os.Exit(1)
	}

	full, err := ev.EvaluateFull(point)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		sess.Finish("error")
		os.Exit(1)
	}
	if !full.Fits {
		fmt.Printf("%v does not fit the %.0f mm interposer\n", full.Point, job.Cons.InterposerMM)
		sess.Finish("no-fit")
		os.Exit(3)
	}

	var logW io.Writer
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			sess.Finish("error")
			os.Exit(1)
		}
		defer f.Close()
		logW = f
	}

	ctx := context.Background()
	base, err := ev.Simulate(ctx, full, scenario, logW)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		sess.Finish("error")
		os.Exit(1)
	}
	score, err := ev.SimulateDistribution(ctx, full, scenario, nDraws)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		sess.Finish("error")
		os.Exit(1)
	}
	res := jobspec.FromSim(full, base, score)

	if *jsonOut {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			sess.Finish("error")
			os.Exit(1)
		}
		fmt.Println(string(out))
		sess.Finish("ok")
		return
	}

	fmt.Printf("%v: %v grid, static peak %.2f C, static objective %.4g\n",
		full.Point, full.Mesh, full.PeakTempC, full.Objective)
	fmt.Printf("scenario: seed %d, %.3g s horizon, %d tenants, dt %.3g s, throttle trips at %.1f C\n",
		scenario.Seed, scenario.DurationSec, len(scenario.Tenants), scenario.ThermalDtSec, scenario.Throttle.TripC)
	fmt.Printf("dynamic: %d requests, %d completed, %d SLA violations, %d throttle events (%.3g s throttled, min freq x%.2f), peak %.2f C\n",
		base.Requests, base.Completed, base.SLAViolations, base.ThrottleEvents,
		base.ThrottledSec, base.MinFreqFactor, base.PeakTempC)
	for _, ts := range base.Tenants {
		fmt.Printf("  tenant %-12s %5d req  %5d done  %4d over SLA  p50 %.4g ms  p95 %.4g ms  p99 %.4g ms\n",
			ts.Name, ts.Requests, ts.Completed, ts.SLAViolations,
			ts.P50Sec*1e3, ts.P95Sec*1e3, ts.P99Sec*1e3)
	}
	if nDraws > 1 {
		fmt.Printf("distribution (%d draws): mean SLA rate %.3g (max %.3g), mean throttled frac %.3g, peak %.2f C (max %.2f C)\n",
			score.Draws, score.MeanSLARate, score.MaxSLARate, score.MeanThrottledFrac,
			score.MeanPeakC, score.MaxPeakC)
	}
	fmt.Printf("combined objective %.4g (static %.4g, dynamic penalty %.3g)\n",
		res.Sim.CombinedObjective, res.Sim.StaticObjective, score.DynamicPenalty())
	if *events != "" {
		fmt.Printf("wrote %s\n", *events)
	}
	sess.Finish("ok")
}
