package main

import (
	"tesa/internal/memo"
	"tesa/internal/telemetry"
)

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
	// bound is the share by which an end-to-end metric may worsen.
	bound float64
}

// endToEnd are the metrics a user sees, from untraced runs. Every
// workload reports all three; see README.md for why the serve
// percentiles and throughput are per-layer.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.24},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.2},
}

// layerMetric is one per-layer metric and how it is computed from a
// traced run's aggregate. Counts are per unit of work.
type layerMetric struct {
	metricDef
	value func(a *agg) float64
}

var perLayer = []layerMetric{
	// core: the evaluation pipeline.
	{metricDef{name: "core.evals", unit: "count", better: "lower"}, func(a *agg) float64 { return a.per(a.hist("pipeline.total").Count) }},
	{metricDef{name: "core.eval_ms", unit: "ms", better: "lower"}, func(a *agg) float64 { return a.mean("pipeline.total") * 1e3 }},
	{metricDef{name: "core.cache_hit_rate", unit: "ratio", better: "higher"}, func(a *agg) float64 {
		return a.rate("evaluator.cache.hit", "evaluator.cache.miss")
	}},
	// thermal: the steady solver behind stage.thermal.
	{metricDef{name: "thermal.share", unit: "ratio", better: "lower"}, func(a *agg) float64 {
		return ratio(a.hist("stage.thermal").Sum, a.hist("pipeline.total").Sum)
	}},
	{metricDef{name: "thermal.entries", unit: "count", better: "lower"}, func(a *agg) float64 { return a.per(a.hist("stage.thermal").Count) }},
	{metricDef{name: "thermal.stage_ms", unit: "ms", better: "lower"}, func(a *agg) float64 { return a.mean("stage.thermal") * 1e3 }},
	{metricDef{name: "thermal.cg_iters", unit: "count", better: "lower"}, func(a *agg) float64 { return a.per(a.counter("thermal.solve.iterations")) }},
	{metricDef{name: "thermal.ns_per_cg_iter", unit: "ns", better: "lower"}, func(a *agg) float64 {
		return ratio(a.hist("stage.thermal").Sum*1e9, float64(a.counter("thermal.solve.iterations")))
	}},
	{metricDef{name: "thermal.screen_rate", unit: "ratio", better: "higher"}, func(a *agg) float64 {
		decided := a.counter("thermal.surrogate.skip.hot") + a.counter("thermal.surrogate.skip.cool")
		return ratio(float64(decided), float64(a.hist("stage.thermal").Count))
	}},
	{metricDef{name: "thermal.warm_hit_rate", unit: "ratio", better: "higher"}, func(a *agg) float64 {
		return a.rate("thermal.warmstart.hit", "thermal.warmstart.miss")
	}},
	{metricDef{name: "thermal.degraded", unit: "count", better: "lower"}, func(a *agg) float64 {
		return a.per(a.counter("thermal.retry.degraded") + a.counter("eval.quarantined"))
	}},
	// systolic, sched, floorplan, dram, cost: the rest of the pipeline.
	{metricDef{name: "systolic.stage_us", unit: "us", better: "lower"}, func(a *agg) float64 { return a.perEval("stage.systolic") }},
	{metricDef{name: "sched.stage_us", unit: "us", better: "lower"}, func(a *agg) float64 { return a.perEval("stage.sched") }},
	{metricDef{name: "stage_other_us", unit: "us", better: "lower"}, func(a *agg) float64 {
		return a.perEval("stage.floorplan") + a.perEval("stage.dram") + a.perEval("stage.cost")
	}},
	// anneal: the search.
	{metricDef{name: "anneal.moves", unit: "count", better: "lower"}, func(a *agg) float64 {
		return a.per(a.counter("anneal.accepted") + a.counter("anneal.rejected"))
	}},
	{metricDef{name: "anneal.accept_rate", unit: "ratio", better: "higher"}, func(a *agg) float64 {
		return a.rate("anneal.accepted", "anneal.rejected")
	}},
	// memo: the content-addressed store.
	{metricDef{name: "memo.lookups", unit: "count", better: "lower"}, func(a *agg) float64 { return a.per(a.memo.Hits + a.memo.Misses) }},
	{metricDef{name: "memo.hit_rate.eval", unit: "ratio", better: "higher"}, memoRate("eval")},
	{metricDef{name: "memo.hit_rate.profiles", unit: "ratio", better: "higher"}, memoRate("profiles")},
	{metricDef{name: "memo.hit_rate.sched", unit: "ratio", better: "higher"}, memoRate("sched")},
	{metricDef{name: "memo.hit_rate.cov", unit: "ratio", better: "higher"}, memoRate("cov")},
	{metricDef{name: "memo.hit_rate.sram", unit: "ratio", better: "higher"}, memoRate("sram")},
	{metricDef{name: "memo.hit_rate.systolic", unit: "ratio", better: "higher"}, memoRate("systolic")},
	{metricDef{name: "memo.entries", unit: "count", better: "lower"}, func(a *agg) float64 { return float64(a.memoLen) }},
	{metricDef{name: "memo.deduped", unit: "count", better: "lower"}, func(a *agg) float64 { return a.per(a.memo.Deduped) }},
	// jobspec: harness-timed Parse+Resolve.
	{metricDef{name: "jobspec.resolve_us", unit: "us", better: "lower"}, func(a *agg) float64 { return median(a.resolveUS) }},
	// server: the job server, from the Status timestamps and client timing.
	{metricDef{name: "server.queue_ms", unit: "ms", better: "lower"}, func(a *agg) float64 {
		return a.jobMean("", func(r jobRecord) float64 { return r.queue }) * 1e3
	}},
	{metricDef{name: "server.run_ms.optimize", unit: "ms", better: "lower"}, runMS("optimize")},
	{metricDef{name: "server.run_ms.sweep", unit: "ms", better: "lower"}, runMS("sweep")},
	{metricDef{name: "server.run_ms.pareto", unit: "ms", better: "lower"}, runMS("pareto")},
	{metricDef{name: "server.client_ms", unit: "ms", better: "lower"}, func(a *agg) float64 {
		return a.jobMean("", func(r jobRecord) float64 { return r.latency - r.inServer }) * 1e3
	}},
	{metricDef{name: "server.jobs_per_s", unit: "1/s", better: "higher"}, func(a *agg) float64 {
		return ratio(float64(len(a.jobs)), sum(a.walls))
	}},
	{metricDef{name: "server.job_p99_ms", unit: "ms", better: "lower"}, func(a *agg) float64 {
		if len(a.jobs) < 1000 { // fewer than 10 samples would lie beyond it
			return 0
		}
		lat := make([]float64, len(a.jobs))
		for i, r := range a.jobs {
			lat[i] = r.latency
		}
		return quantile(lat, 0.99) * 1e3
	}},
	{metricDef{name: "server.job_samples", unit: "count", better: "higher"}, func(a *agg) float64 { return float64(len(a.jobs)) }},
	{metricDef{name: "server.jobs_retained", unit: "count", better: "lower"}, func(a *agg) float64 { return float64(a.retained) }},
	// des: the discrete-event engine and its transient stepper.
	{metricDef{name: "des.steps", unit: "count", better: "lower"}, func(a *agg) float64 { return a.per(a.counter("sim.steps")) }},
	{metricDef{name: "des.step_us", unit: "us", better: "lower"}, func(a *agg) float64 {
		return ratio(a.hist("sim.run").Sum*1e6, float64(a.counter("sim.steps")))
	}},
	{metricDef{name: "des.requests", unit: "count", better: "higher"}, func(a *agg) float64 { return a.per(a.counter("sim.requests")) }},
	{metricDef{name: "des.sla_violations", unit: "count", better: "lower"}, func(a *agg) float64 { return a.per(a.counter("sim.sla_violations")) }},
	{metricDef{name: "des.throttle_events", unit: "count", better: "lower"}, func(a *agg) float64 { return a.per(a.counter("sim.throttle_events")) }},
	// process: the whole benchmark process, per traced unit.
	{metricDef{name: "proc.cpu_s", unit: "s", better: "lower"}, func(a *agg) float64 { return a.procMean(func(p procSample) float64 { return p.cpu }) }},
	{metricDef{name: "proc.cpu_util", unit: "ratio", better: "higher"}, func(a *agg) float64 {
		return ratio(a.procMean(func(p procSample) float64 { return p.cpu })*float64(len(a.walls)), sum(a.walls))
	}},
	{metricDef{name: "proc.alloc_mb", unit: "MiB", better: "lower"}, func(a *agg) float64 { return a.procMean(func(p procSample) float64 { return p.allocMB }) }},
	{metricDef{name: "proc.gc_cycles", unit: "count", better: "lower"}, func(a *agg) float64 { return a.procMean(func(p procSample) float64 { return p.gc }) }},
	// telemetry and harness.
	{metricDef{name: "trace.overhead_frac", unit: "ratio", better: "lower"}, func(a *agg) float64 { return a.overhead }},
	{metricDef{name: "harness.self_frac", unit: "ratio", better: "lower"}, func(a *agg) float64 { return a.selfFrac }},
}

func memoRate(kind string) func(a *agg) float64 {
	return func(a *agg) float64 {
		ks := a.memo.Kinds[kind]
		return ratio(float64(ks.Hits), float64(ks.Hits+ks.Misses))
	}
}

func runMS(kind string) func(a *agg) float64 {
	return func(a *agg) float64 {
		return a.jobMean(kind, func(r jobRecord) float64 { return r.run }) * 1e3
	}
}

// histSum is the additive part of a histogram: count and sum.
type histSum struct {
	Count int64
	Sum   float64
}

// sample is what the program's own telemetry and memo store reported
// over one traced unit: the difference between two readings.
type sample struct {
	counters map[string]int64
	hists    map[string]histSum
	memo     memo.Stats
	memoLen  int
}

// newSample is the change between the before and after readings.
func newSample(tb, ta telemetry.MetricsSnapshot, mb, ma memo.Stats, memoLen int) *sample {
	s := &sample{counters: map[string]int64{}, hists: map[string]histSum{}, memoLen: memoLen}
	for k, v := range ta.Counters {
		s.counters[k] = v - tb.Counters[k]
	}
	for k, h := range ta.Histograms {
		b := tb.Histograms[k]
		s.hists[k] = histSum{h.Count - b.Count, h.Sum - b.Sum}
	}
	s.memo = memoAdd(ma, mb, -1)
	return s
}

// memoAdd is a + sign*b, kind by kind.
func memoAdd(a, b memo.Stats, sign int64) memo.Stats {
	out := memo.Stats{Kinds: map[string]memo.KindStats{}}
	for _, st := range []struct {
		s    memo.Stats
		sign int64
	}{{a, 1}, {b, sign}} {
		for k, ks := range st.s.Kinds {
			d := out.Kinds[k]
			d.Hits += st.sign * ks.Hits
			d.Misses += st.sign * ks.Misses
			d.Deduped += st.sign * ks.Deduped
			out.Kinds[k] = d
			out.Hits += st.sign * ks.Hits
			out.Misses += st.sign * ks.Misses
			out.Deduped += st.sign * ks.Deduped
		}
	}
	return out
}

// agg sums a traced run's unit samples.
type agg struct {
	n         int
	counters  map[string]int64
	hists     map[string]histSum
	memo      memo.Stats
	memoLen   int
	jobs      []jobRecord
	walls     []float64
	procs     []procSample
	resolveUS []float64
	overhead  float64
	selfFrac  float64
	retained  int
}

func aggregate(units []unitResult) *agg {
	a := &agg{n: len(units), counters: map[string]int64{}, hists: map[string]histSum{}}
	for _, u := range units {
		a.walls = append(a.walls, u.wall)
		a.jobs = append(a.jobs, u.jobs...)
		if u.sample == nil {
			continue
		}
		for k, v := range u.sample.counters {
			a.counters[k] += v
		}
		for k, h := range u.sample.hists {
			s := a.hists[k]
			a.hists[k] = histSum{s.Count + h.Count, s.Sum + h.Sum}
		}
		a.memo = memoAdd(a.memo, u.sample.memo, 1)
		a.memoLen = u.sample.memoLen
	}
	return a
}

func (a *agg) counter(name string) int64 { return a.counters[name] }
func (a *agg) hist(name string) histSum  { return a.hists[name] }
func (a *agg) per(v int64) float64       { return ratio(float64(v), float64(a.n)) }
func (a *agg) mean(hist string) float64  { h := a.hist(hist); return ratio(h.Sum, float64(h.Count)) }
func (a *agg) perEval(hist string) float64 {
	return ratio(a.hist(hist).Sum*1e6, float64(a.hist("pipeline.total").Count))
}

// rate is hits/(hits+misses) over two counters.
func (a *agg) rate(hit, miss string) float64 {
	h, m := float64(a.counter(hit)), float64(a.counter(miss))
	return ratio(h, h+m)
}

// jobMean averages f over the timed jobs of kind ("" = every kind).
func (a *agg) jobMean(kind string, f func(jobRecord) float64) float64 {
	var s float64
	n := 0
	for _, r := range a.jobs {
		if kind == "" || r.kind == kind {
			s += f(r)
			n++
		}
	}
	return ratio(s, float64(n))
}

func (a *agg) procMean(f func(procSample) float64) float64 {
	var s float64
	for _, p := range a.procs {
		s += f(p)
	}
	return ratio(s, float64(len(a.procs)))
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
