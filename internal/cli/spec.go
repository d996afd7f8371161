package cli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"tesa"
	"tesa/internal/des"
	"tesa/internal/jobspec"
)

// SpecFlags are a command's configuration flags and its -job flag. The
// config flags and a -job file are two spellings of one jobspec.Spec:
// each config flag fills one field of the spec, and Resolve turns
// whichever spelling was given into the *jobspec.Resolved the command
// runs. Registering a config flag records its name, so the -job
// conflict check covers exactly the flags the spec is built from.
type SpecFlags struct {
	fs       *flag.FlagSet
	kind     string
	job      *string
	config   map[string]bool
	deadline *time.Duration
	build    func() (*jobspec.Spec, error)
}

func newSpecFlags(fs *flag.FlagSet, kind string) *SpecFlags {
	return &SpecFlags{
		fs:     fs,
		kind:   kind,
		job:    fs.String("job", "", "run this jobspec JSON file (tesa.jobspec/v1); conflicts with the per-setting config flags"),
		config: map[string]bool{},
	}
}

// name records a config flag's name and returns it for registration.
func (s *SpecFlags) name(n string) string {
	s.config[n] = true
	return n
}

// Resolve returns the job the command runs: the -job spec when one was
// given, otherwise the spec the config flags spell. Either way it goes
// through jobspec.Spec.Resolve. A -job spec must be of the command's
// kind, and no config flag may be set alongside it: the spec is the
// whole configuration, so a stray -grid that would be silently ignored
// is an error instead. Relative workload_file paths resolve against the
// spec file's directory. An explicitly set -deadline (an operational
// flag) overrides the spec's deadline_sec.
func (s *SpecFlags) Resolve() (*jobspec.Resolved, error) {
	spec, baseDir, err := s.spec()
	if err != nil {
		return nil, err
	}
	r, err := spec.Resolve(baseDir)
	if err != nil {
		return nil, err
	}
	if s.deadline != nil && s.isSet("deadline") {
		r.Deadline = *s.deadline
	}
	return r, nil
}

// JobPath is the -job file path ("" when the config flags spell the
// spec).
func (s *SpecFlags) JobPath() string { return *s.job }

// isSet reports whether the named flag was given on the command line.
func (s *SpecFlags) isSet(name string) bool {
	set := false
	s.fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// spec returns the command's spec and the directory its relative paths
// resolve against.
func (s *SpecFlags) spec() (*jobspec.Spec, string, error) {
	if *s.job == "" {
		spec, err := s.build()
		return spec, "", err
	}
	var clash []string
	s.fs.Visit(func(f *flag.Flag) {
		if s.config[f.Name] {
			clash = append(clash, "-"+f.Name)
		}
	})
	if len(clash) > 0 {
		return nil, "", fmt.Errorf("config flags %v conflict with -job (the spec is the configuration; edit it instead)", clash)
	}
	spec, err := jobspec.Load(*s.job)
	if err != nil {
		return nil, "", err
	}
	if spec.Kind != s.kind {
		return nil, "", fmt.Errorf("-job: %s is a %q job; this command runs %q jobs", *s.job, spec.Kind, s.kind)
	}
	return spec, filepath.Dir(*s.job), nil
}

// cornerFlags are the operating corner every spec-building command takes
// from flags.
type cornerFlags struct {
	tech            *string
	freq, fps, temp *float64
	grid            *int
}

func (s *SpecFlags) corner(fps, temp float64, grid int) cornerFlags {
	return cornerFlags{
		tech: s.fs.String(s.name("tech"), "2d", "integration technology: 2d or 3d"),
		freq: s.fs.Float64(s.name("freq"), 400, "operating frequency in MHz"),
		fps:  s.fs.Float64(s.name("fps"), fps, "latency constraint in frames per second"),
		temp: s.fs.Float64(s.name("temp"), temp, "thermal budget in Celsius"),
		grid: s.fs.Int(s.name("grid"), grid, "thermal grid cells per side"),
	}
}

// spec is the spec the corner flags spell; each command adds its own
// fields.
func (c cornerFlags) spec(kind string) *jobspec.Spec {
	return &jobspec.Spec{
		Version:     jobspec.Version,
		Kind:        kind,
		Options:     &jobspec.Options{Tech: c.tech, FreqMHz: c.freq, Grid: c.grid},
		Constraints: &jobspec.Constraints{FPS: c.fps, TempC: c.temp},
	}
}

// searchFlags are the seed, the fast-path and surrogate options, and the
// failure policies of the search commands (tesa, tesa-sweep,
// tesa-pareto).
type searchFlags struct {
	seed      *int64
	fast      *bool
	band      *float64
	surrogate *bool
	surK      *int
	faults    *string
	maxFail   *int
	failFast  *bool
	stageTO   *time.Duration
}

func (s *SpecFlags) search(surrogateUsage string) searchFlags {
	return searchFlags{
		seed:      s.fs.Int64(s.name("seed"), 1, "optimizer seed"),
		fast:      s.fs.Bool(s.name("thermal-fast"), false, "fast thermal path: workspace CG, warm starts, surrogate pre-screen"),
		band:      s.fs.Float64(s.name("surrogate-band"), tesa.DefaultSurrogateBandC, "surrogate pre-screen guard band in Celsius (with -thermal-fast)"),
		surrogate: s.fs.Bool(s.name("surrogate"), false, surrogateUsage),
		surK:      s.fs.Int(s.name("surrogate-k"), 0, "surrogate neighborhood size and ranked-move candidate count (0 = default; with -surrogate)"),
		faults:    s.fs.String(s.name("faults"), os.Getenv("TESA_FAULTS"), "fault-injection spec, e.g. panic@thermal:rate=0.05 (default $TESA_FAULTS)"),
		maxFail:   s.fs.Int(s.name("max-failures"), 0, "abort once more than this many points are quarantined (0 = unlimited)"),
		failFast:  s.fs.Bool(s.name("fail-fast"), false, "abort on the first failed evaluation instead of quarantining it"),
		stageTO:   s.fs.Duration(s.name("stage-timeout"), 0, "quarantine a point when one pipeline stage exceeds this duration (0 = off)"),
	}
}

// searchSpec is the spec a search command's corner and search flags
// spell; the command adds its own fields.
func (s *SpecFlags) searchSpec(c cornerFlags, f searchFlags) (*jobspec.Spec, error) {
	if *f.stageTO%time.Millisecond != 0 {
		return nil, fmt.Errorf("-stage-timeout %v: the timeout is whole milliseconds", *f.stageTO)
	}
	spec := c.spec(s.kind)
	o := spec.Options
	o.ThermalFast, o.SurrogateBandC, o.Surrogate, o.SurrogateK = f.fast, f.band, f.surrogate, f.surK
	spec.Seed = f.seed
	spec.Policies = &jobspec.Policies{
		MaxFailures:    *f.maxFail,
		FailFast:       *f.failFast,
		StageTimeoutMS: int(*f.stageTO / time.Millisecond),
		Faults:         *f.faults,
	}
	return spec, nil
}

// OptimizeFlags registers tesa's config flags, -job, and -deadline on
// fs.
func OptimizeFlags(fs *flag.FlagSet) *SpecFlags {
	s := newSpecFlags(fs, jobspec.KindOptimize)
	c := s.corner(30, 75, 32)
	f := s.search("learned ranking surrogate: order candidate moves and seeds best-predicted-first (results unchanged)")
	power := fs.Float64(s.name("power"), 15, "power budget in watts")
	interposer := fs.Float64(s.name("interposer"), 8, "interposer side in mm")
	alpha := fs.Float64(s.name("alpha"), 1, "Eq. 6 weight on MCM cost")
	beta := fs.Float64(s.name("beta"), 1, "Eq. 6 weight on DRAM power")
	dataflow := fs.String(s.name("dataflow"), "os", "systolic dataflow: os or ws")
	workload := fs.String(s.name("workload"), "", "JSON workload file (default: the built-in AR/VR workload)")
	s.deadline = fs.Duration("deadline", 0, "abort the search after this duration (0 = none)")
	s.build = func() (*jobspec.Spec, error) {
		spec, err := s.searchSpec(c, f)
		if err != nil {
			return nil, err
		}
		spec.Options.Alpha, spec.Options.Beta, spec.Options.Dataflow = alpha, beta, dataflow
		spec.Constraints.PowerW, spec.Constraints.InterposerMM = power, interposer
		spec.WorkloadFile = *workload
		return spec, nil
	}
	return s
}

// SweepFlags registers tesa-sweep's config flags and -job on fs.
func SweepFlags(fs *flag.FlagSet) *SpecFlags {
	s := newSpecFlags(fs, jobspec.KindSweep)
	c := s.corner(15, 85, 32)
	f := s.search("learned ranking surrogate: order sweep shards and annealer moves best-predicted-first (results unchanged)")
	full := fs.Bool(s.name("full"), false, "sweep the full Table II space instead of the validation space")
	shard := fs.Int(s.name("shard"), 0, "points per sweep shard (0 = automatic)")
	s.build = func() (*jobspec.Spec, error) {
		spec, err := s.searchSpec(c, f)
		if err != nil {
			return nil, err
		}
		if *full {
			spec.Space = &jobspec.Space{Preset: "default"}
		}
		spec.Sweep = &jobspec.Sweep{ShardSize: *shard}
		return spec, nil
	}
	return s
}

// ParetoFlags registers tesa-pareto's config flags and -job on fs.
func ParetoFlags(fs *flag.FlagSet) *SpecFlags {
	s := newSpecFlags(fs, jobspec.KindPareto)
	c := s.corner(30, 75, 32)
	f := s.search("learned ranking surrogate: order proposals best-predicted-first (results unchanged)")
	front := fs.String(s.name("front"), "weights", "front engine: weights (Eq. 6 sweep) or nsga2 (multi-objective population)")
	points := fs.Int(s.name("points"), 9, "number of weight settings to sweep (weights front)")
	pop := fs.Int(s.name("pop"), 0, "NSGA-II population size (0 = default; nsga2 front)")
	gens := fs.Int(s.name("gens"), 0, "NSGA-II generations (0 = default; nsga2 front)")
	s.build = func() (*jobspec.Spec, error) {
		spec, err := s.searchSpec(c, f)
		if err != nil {
			return nil, err
		}
		// Each front reads only its own shape flags.
		spec.Pareto = &jobspec.Pareto{Front: *front}
		switch {
		case *front == "nsga2":
			spec.Pareto.Pop, spec.Pareto.Gens = *pop, *gens
		case *points < 2:
			return nil, fmt.Errorf("need at least 2 sweep points")
		default:
			spec.Pareto.Points = *points
		}
		return spec, nil
	}
	return s
}

// SimFlags registers tesa-sim's config flags (the -tenant list
// included) and -job on fs.
func SimFlags(fs *flag.FlagSet) *SpecFlags {
	s := newSpecFlags(fs, jobspec.KindSim)
	c := s.corner(30, 75, 88)
	dim := fs.Int(s.name("dim"), 200, "systolic array dimension")
	ics := fs.Int(s.name("ics"), 1700, "inter-chiplet spacing in micrometers")
	duration := fs.Float64(s.name("duration"), 10, "simulated horizon in seconds")
	dt := fs.Float64(s.name("dt"), 0.05, "thermal coupling tick in seconds")
	seed := fs.Int64(s.name("seed"), 1, "scenario seed (same seed, same run)")
	draws := fs.Int(s.name("draws"), 1, "score the point over this many seeded scenario draws")
	trip := fs.Float64(s.name("trip"), 0, "DVFS throttle trip point in Celsius (0 = the -temp budget)")
	var tenants tenantFlags
	fs.Var(&tenants, s.name("tenant"), "add a traffic source: name:network:kind:rateRPS:slaSec (repeatable)")
	s.build = func() (*jobspec.Spec, error) {
		if len(tenants) == 0 {
			return nil, fmt.Errorf("no traffic: give at least one -tenant name:network:kind:rateRPS:slaSec (or -job)")
		}
		sim := &jobspec.Sim{ArrayDim: *dim, ICSUM: *ics, DurationSec: *duration, ThermalDtSec: *dt, Draws: *draws}
		for _, spec := range tenants {
			t, err := parseTenant(spec)
			if err != nil {
				return nil, err
			}
			sim.Tenants = append(sim.Tenants, t)
		}
		if *trip != 0 {
			sim.Throttle = &des.Throttle{TripC: *trip}
		}
		spec := c.spec(s.kind)
		spec.Seed, spec.Sim = seed, sim
		return spec, nil
	}
	return s
}

// tenantFlags collects repeated -tenant specs.
type tenantFlags []string

// String renders the accumulated specs for flag's usage output.
func (t *tenantFlags) String() string { return strings.Join(*t, " ") }

// Set appends one -tenant occurrence.
func (t *tenantFlags) Set(v string) error {
	*t = append(*t, v)
	return nil
}

// parseTenant decodes one name:network:kind:rateRPS:slaSec spec.
func parseTenant(spec string) (des.Tenant, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 5 {
		return des.Tenant{}, fmt.Errorf("-tenant %q: want name:network:kind:rateRPS:slaSec", spec)
	}
	rate, err := strconv.ParseFloat(parts[3], 64)
	if err != nil {
		return des.Tenant{}, fmt.Errorf("-tenant %q: bad rate: %v", spec, err)
	}
	sla, err := strconv.ParseFloat(parts[4], 64)
	if err != nil {
		return des.Tenant{}, fmt.Errorf("-tenant %q: bad SLA: %v", spec, err)
	}
	return des.Tenant{
		Name:    parts[0],
		Network: parts[1],
		Arrival: des.ArrivalSpec{Kind: strings.ToLower(parts[2]), RateRPS: rate},
		SLASec:  sla,
	}, nil
}
