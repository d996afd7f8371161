package cli

import (
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tesa/internal/jobspec"
)

// testdata is the jobspec package's spec corpus.
var testdata = filepath.Join("..", "jobspec", "testdata")

// shape is one command's flag registration: its kind, its spec, and
// the extra arguments its flag path needs to run at all.
type shape struct {
	kind     string
	register func(*flag.FlagSet) *SpecFlags
	job      string
	required []string
}

var shapes = []shape{
	{jobspec.KindOptimize, OptimizeFlags, "optimize.json", nil},
	{jobspec.KindSweep, SweepFlags, "sweep.json", nil},
	{jobspec.KindPareto, ParetoFlags, "pareto.json", nil},
	{jobspec.KindSim, SimFlags, "sim.json", []string{"-tenant", "ar:MobileNet:diurnal:10:0.1"}},
}

// parse registers sh on a fresh flag set and parses args.
func (sh shape) parse(t *testing.T, args ...string) *SpecFlags {
	t.Helper()
	fs := flag.NewFlagSet(sh.kind, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s := sh.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return s
}

// resolveErr resolves s and returns the error text ("" on success).
func resolveErr(s *SpecFlags) string {
	if _, err := s.Resolve(); err != nil {
		return err.Error()
	}
	return ""
}

// TestConfigFlagConflictsWithJob: a config flag set together with -job
// fails, and the error names the flag.
func TestConfigFlagConflictsWithJob(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.kind, func(t *testing.T) {
			s := sh.parse(t, "-job", filepath.Join(testdata, sh.job), "-grid", "8", "-tech", "3d")
			msg := resolveErr(s)
			if !strings.Contains(msg, "[-grid -tech] conflict with -job") {
				t.Errorf("error %q does not name -grid and -tech", msg)
			}
		})
	}
}

// TestEveryConfigFlagConflicts: every flag the spec is built from is in
// the conflict set, and nothing else is.
func TestEveryConfigFlagConflicts(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.kind, func(t *testing.T) {
			fs := flag.NewFlagSet(sh.kind, flag.ContinueOnError)
			s := sh.register(fs)
			fs.VisitAll(func(f *flag.Flag) {
				operational := f.Name == "job" || f.Name == "deadline"
				if s.config[f.Name] == operational {
					t.Errorf("-%s: config = %v", f.Name, s.config[f.Name])
				}
			})
		})
	}
}

// TestOperationalFlagsComposeWithJob: the observability, memo,
// progress, deadline, and checkpoint flags are not configuration, so
// they compose with -job; an explicit -deadline overrides the spec's.
func TestOperationalFlagsComposeWithJob(t *testing.T) {
	saved := flag.CommandLine
	t.Cleanup(func() { flag.CommandLine = saved })
	fs := flag.NewFlagSet("tesa", flag.ContinueOnError)
	flag.CommandLine = fs
	s := OptimizeFlags(fs)
	ObservabilityFlags()
	MemoFlagsRegister()
	fs.Bool("progress", false, "")
	fs.String("checkpoint", "", "")
	fs.String("resume", "", "")
	err := fs.Parse([]string{
		"-job", filepath.Join(testdata, "optimize.json"),
		"-progress", "-deadline", "3s", "-memo-dir", t.TempDir(), "-starts-parallel",
		"-metrics", "-trace", "t.jsonl", "-pprof", "localhost:0", "-metrics-addr", "localhost:0",
		"-manifest", "m.jsonl", "-checkpoint", "c.ckpt", "-resume", "c.ckpt",
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Resolve()
	if err != nil {
		t.Fatalf("operational flags rejected alongside -job: %v", err)
	}
	if r.Deadline != 3*time.Second {
		t.Errorf("deadline = %v, want the -deadline flag's 3s over the spec's", r.Deadline)
	}
	if r.Seed != 7 {
		t.Errorf("seed = %d, want the spec's 7", r.Seed)
	}
}

// TestJobOfWrongKindRejected: each command refuses a spec of another
// kind.
func TestJobOfWrongKindRejected(t *testing.T) {
	for i, sh := range shapes {
		other := shapes[(i+1)%len(shapes)]
		t.Run(sh.kind, func(t *testing.T) {
			s := sh.parse(t, "-job", filepath.Join(testdata, other.job))
			msg := resolveErr(s)
			want := "is a \"" + other.kind + "\" job; this command runs \"" + sh.kind + "\" jobs"
			if !strings.Contains(msg, want) {
				t.Errorf("error %q, want it to contain %q", msg, want)
			}
		})
	}
}

// TestInvalidTechFails: an unknown -tech is an error on every command
// instead of silently running a 2-D study.
func TestInvalidTechFails(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.kind, func(t *testing.T) {
			s := sh.parse(t, append([]string{"-tech", "3x"}, sh.required...)...)
			if msg := resolveErr(s); !strings.Contains(msg, `unknown tech "3x"`) {
				t.Errorf("error %q, want an unknown-tech error", msg)
			}
		})
	}
}

// TestStageTimeoutWholeMilliseconds: -stage-timeout fills the spec's
// whole-millisecond field; a sub-millisecond part is refused rather
// than truncated (500us would otherwise turn the timeout off).
func TestStageTimeoutWholeMilliseconds(t *testing.T) {
	for _, sh := range shapes[:3] {
		t.Run(sh.kind, func(t *testing.T) {
			if msg := resolveErr(sh.parse(t, "-stage-timeout", "500us")); !strings.Contains(msg, "whole milliseconds") {
				t.Errorf("500us: error %q, want a whole-milliseconds error", msg)
			}
			r, err := sh.parse(t, "-stage-timeout", "1500ms").Resolve()
			if err != nil {
				t.Fatal(err)
			}
			if r.StageTimeout != 1500*time.Millisecond {
				t.Errorf("stage timeout = %v, want 1.5s", r.StageTimeout)
			}
		})
	}
}

// TestFlagSpecRoundTrips: at each command's default flags, the spec the
// flags spell survives Marshal -> Parse -> Resolve unchanged, so the
// flag path and its -job twin are the same job.
func TestFlagSpecRoundTrips(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.kind, func(t *testing.T) {
			spec, err := sh.parse(t, sh.required...).build()
			if err != nil {
				t.Fatal(err)
			}
			direct, err := spec.Resolve("")
			if err != nil {
				t.Fatal(err)
			}
			data, err := spec.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := jobspec.Parse(data)
			if err != nil {
				t.Fatalf("Parse(Marshal(flag spec)): %v\n%s", err, data)
			}
			twin, err := parsed.Resolve("")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(direct, twin) {
				t.Errorf("round trip changed the job:\n direct %+v\n   twin %+v", direct, twin)
			}
		})
	}
}

// TestSweepFlagsMatchJobFile: `tesa-sweep -grid 16 -thermal-fast` and
// `tesa-sweep -job sweep-grid16.json` resolve to the same job.
func TestSweepFlagsMatchJobFile(t *testing.T) {
	sh := shapes[1]
	flags, err := sh.parse(t, "-grid", "16", "-thermal-fast").Resolve()
	if err != nil {
		t.Fatal(err)
	}
	job, err := sh.parse(t, "-job", filepath.Join(testdata, "sweep-grid16.json")).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flags, job) {
		t.Errorf("flag path and -job path differ:\n flags %+v\n   job %+v", flags, job)
	}
}
