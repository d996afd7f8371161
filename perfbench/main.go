// Command perfbench is the repository benchmark. It runs one named
// workload through the program's public entry points — jobspec.Parse,
// Spec.Resolve and jobspec.Run for the batch workloads; server.New, its
// Handler and server.Client over loopback for serve-warm — checks every
// answer, and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload optimize-2d --seed 1 --seconds 28 --trace 0
//
// A run sets the workload up several times (setup_s is the median),
// then repeats the workload's fixed unit of work. The number of units
// is derived from --seconds by a constant per-workload share, so every
// run of one configuration does the same work; the clock never cuts a
// unit short. With --trace 0 the result carries the end-to-end metrics,
// with --trace 1 the per-layer metrics: the same number of units,
// alternately untraced and with telemetry attached, so the tracing
// overhead is measured too, and the harness's spans are written to
// .bench_build/perfbench/.
//
// The line before the result records the host, the seed, the commit and
// the workload's steady-load rules. See README.md for the metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"tesa/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed (serve-warm draws its job list from it)")
	seconds := fs.Int("seconds", 28, "nominal measuring time; sets the number of fixed work units")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{seed: *seed, units: w.units(*seconds), traced: *trace == 1}
	res, rec, err := measure(context.Background(), w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	info := map[string]any{
		"host":     hostRecord(cfg.seed),
		"workload": w.name,
		"units":    cfg.units,
		"unit":     w.unit,
		"rules":    w.rules,
	}
	if rec != nil {
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
		if err := rec.writeFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		info["spans"] = path
	}
	if err := printJSON(info); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := printJSON(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// config is one run's settings.
type config struct {
	seed   int64
	units  int
	traced bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure runs the workload's set-up and its units and returns the
// result line; in a traced run it also returns the span recorder.
func measure(ctx context.Context, w *workload, cfg config) (*result, *recorder, error) {
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	// Set-up runs setupReps times; every instance but the last is torn
	// down again, so setup_s is the median of complete set-ups.
	var setups, resolveUS []float64
	var inst instance
	for i := 0; i < w.setupReps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC() // every set-up starts from a collected heap
		sp := rec.open("setup", "", span{})
		t := time.Now()
		var err error
		inst, err = w.setup(ctx, cfg.seed, rec, sp)
		setups = append(setups, time.Since(t).Seconds())
		sp.close()
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		resolveUS = append(resolveUS, inst.resolveTimes()...)
	}
	defer inst.close()
	fmt.Fprintf(os.Stderr, "perfbench: %s set up in %.4f s (median of %d), %d units\n",
		w.name, median(setups), len(setups), cfg.units)

	// A traced run does the same units, alternating untraced ones (on an
	// untraced instance, first, as the first unit of a process is the
	// slowest) with traced ones, so trace.overhead_frac compares like with
	// like and the run takes as long as an untraced one.
	var plain instance
	if cfg.traced && cfg.units > 1 {
		var err error
		if plain, err = w.setup(ctx, cfg.seed, nil, span{}); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		defer plain.close()
	}

	var units, plainUnits []unitResult
	var procs []procSample
	timed := rec.open("timed", "", span{})
	for i := 0; i < cfg.units; i++ {
		// Every unit starts from a collected heap, as a job in a fresh
		// process would: the previous unit's garbage neither adds to
		// peak_rss_mb nor taxes this unit's time.
		runtime.GC()
		if plain != nil && i%2 == 0 {
			u, err := plain.unit(ctx, span{})
			if err != nil {
				return nil, nil, err
			}
			logUnit(w, i, u)
			plainUnits = append(plainUnits, u)
			continue
		}
		us := rec.open("unit", "", timed)
		before := readProc(cfg.traced)
		u, err := inst.unit(ctx, us)
		procs = append(procs, readProc(cfg.traced).minus(before))
		us.close()
		if err != nil {
			return nil, nil, err
		}
		logUnit(w, i, u)
		units = append(units, u)
	}
	timed.close()

	res := &result{Metrics: map[string]metric{}}
	for _, us := range [][]unitResult{units, plainUnits} {
		for _, u := range us {
			res.Attempted += u.attempted
			res.Failed += u.failed
		}
	}
	res.Correct = res.Failed == 0
	if !cfg.traced {
		e2e := map[string]float64{
			"wall_s":      answerTime(units),
			"setup_s":     median(setups),
			"peak_rss_mb": peakRSSMiB(),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{e2e[d.name], d.unit}
		}
		return res, nil, nil
	}
	agg := aggregate(units)
	agg.procs = procs
	agg.resolveUS = resolveUS
	if len(plainUnits) > 0 {
		agg.overhead = median(walls(units))/median(walls(plainUnits)) - 1
	}
	agg.selfFrac = rec.selfFraction("unit")
	agg.retained = inst.retained()
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{d.value(agg), d.unit}
	}
	return res, rec, nil
}

func logUnit(w *workload, i int, u unitResult) {
	fmt.Fprintf(os.Stderr, "perfbench: %s unit %d: %.4f s, %d/%d failed\n", w.name, i+1, u.wall, u.failed, u.attempted)
}

// answerTime is wall_s: the median time from asking for an answer to
// holding it, checked. For batch workloads one unit is one job; for
// serve-warm it is the median client-observed job latency.
func answerTime(units []unitResult) float64 {
	var lat []float64
	for _, u := range units {
		lat = append(lat, u.latencies...)
	}
	if len(lat) > 0 {
		return median(lat)
	}
	return median(walls(units))
}

func walls(units []unitResult) []float64 {
	out := make([]float64, len(units))
	for i, u := range units {
		out[i] = u.wall
	}
	return out
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile is the R-7 linear-interpolation quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// procSample is a reading of the process's CPU time and allocation
// counters; zero unless the run is traced (ReadMemStats stops the world).
type procSample struct {
	cpu, allocMB, gc float64
}

func readProc(on bool) procSample {
	if !on {
		return procSample{}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		cpu:     tv(ru.Utime) + tv(ru.Stime),
		allocMB: float64(ms.TotalAlloc) / (1 << 20),
		gc:      float64(ms.NumGC),
	}
}

func (p procSample) minus(q procSample) procSample {
	return procSample{p.cpu - q.cpu, p.allocMB - q.allocMB, p.gc - q.gc}
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMiB is the process's peak resident set: VmHWM, which an exec
// resets, with getrusage's maximum as the fallback.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024
}

// hostRecord describes where and on what a run measured.
func hostRecord(seed int64) map[string]any {
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"cpu_model":     cpuModel(),
		"model_version": core.ModelVersion,
		"seed":          seed,
		"commit":        commit(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, "unknown" when
// the sources were not a repository (as in an exported checkout).
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// ratio is a/b, 0 when b is 0 so a layer a workload never reaches reads 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) {
		return 0
	}
	return a / b
}
