package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tesa/internal/jobspec"
	"tesa/internal/memo"
	"tesa/internal/server"
	"tesa/internal/telemetry"
)

const (
	// serveClients is the closed loop's client count.
	serveClients = 2
	// poolPerKind is the number of distinct specs of each kind.
	poolPerKind = 8
)

// serveKinds is the job mix of one serve-warm batch: exact counts, so
// every batch costs the same whatever the seed.
var serveKinds = []struct {
	kind string
	n    int
}{
	{jobspec.KindOptimize, 125},
	{jobspec.KindSweep, 50},
	{jobspec.KindPareto, 75},
}

// servePool is serve-warm's distinct specs, poolPerKind of each kind in
// serveKinds order: the validation corner (2-D, 400 MHz, 15 fps, the
// validation space, grid 16, fast thermal path) as optimize jobs with
// seeds 1-8 at 85 C, sweeps with temperature limits 77-84 C, and
// three-weight pareto fronts with seeds 1-8 at 85 C.
func servePool() [][]byte {
	var out [][]byte
	for _, k := range serveKinds {
		for i := 1; i <= poolPerKind; i++ {
			fps, temp, grid, fast := 15.0, 85.0, 16, true
			if k.kind == jobspec.KindSweep {
				temp = float64(76 + i)
			}
			spec := jobspec.Spec{
				Version:     jobspec.Version,
				Kind:        k.kind,
				Options:     &jobspec.Options{Grid: &grid, ThermalFast: &fast},
				Constraints: &jobspec.Constraints{FPS: &fps, TempC: &temp},
				Space:       &jobspec.Space{Preset: "validation"},
			}
			if k.kind != jobspec.KindSweep {
				seed := int64(i)
				spec.Seed = &seed
			}
			if k.kind == jobspec.KindPareto {
				spec.Pareto = &jobspec.Pareto{Points: 3}
			}
			raw, err := spec.Marshal()
			if err != nil {
				panic(err) // a fixed spec always marshals
			}
			out = append(out, raw)
		}
	}
	return out
}

// jobList is batch k's job list for seed: pool indices with the exact
// serveKinds counts, members and order drawn from the seed.
func jobList(seed int64, k int) []int {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
	var out []int
	for i, kind := range serveKinds {
		for j := 0; j < kind.n; j++ {
			out = append(out, i*poolPerKind+rng.Intn(poolPerKind))
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// answer renders what a serve-warm job must reproduce: each winner's
// design point, mesh and exact objective (per front point for pareto).
func answer(res *jobspec.Result) string {
	if res == nil {
		return "no result"
	}
	var b strings.Builder
	put := func(found bool, best *jobspec.Best) {
		if !found || best == nil {
			b.WriteString("none;")
			return
		}
		fmt.Fprintf(&b, "%d/%d %dx%d %s;", best.ArrayDim, best.ICSUM, best.MeshRows, best.MeshCols,
			strconv.FormatFloat(best.Objective, 'g', -1, 64))
	}
	b.WriteString(res.Kind + ":")
	put(res.Found, res.Best)
	for _, fp := range res.Front {
		put(fp.Found, fp.Best)
	}
	return b.String()
}

// jobRecord is one timed serve-warm job, in seconds.
type jobRecord struct {
	kind                          string
	latency, queue, run, inServer float64
}

// serveInst is a running tesa-server on loopback with a warm store.
type serveInst struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	hc     *http.Client
	cl     *server.Client
	store  *memo.Store
	tel    *telemetry.Telemetry
	rec    *recorder

	seed      int64
	batch     int
	pool      [][]byte
	kinds     []string
	want      []string
	resolveUS []float64
}

// serveSetup starts a server with a fresh process-wide store and runs
// every pool spec once, cold, to fill the store and record the answers
// the timed jobs must reproduce.
func serveSetup(ctx context.Context, seed int64, rec *recorder, parent span) (instance, error) {
	s := &serveInst{store: memo.NewStore(), rec: rec, seed: seed, pool: servePool(), served: make(chan error, 1)}
	for _, raw := range s.pool {
		t := time.Now()
		sp := rec.open("jobspec.parse", "", parent)
		spec, err := jobspec.Parse(raw)
		sp.close()
		if err != nil {
			return nil, err
		}
		sp = rec.open("jobspec.resolve", "", parent)
		_, err = spec.Resolve("")
		sp.close()
		if err != nil {
			return nil, err
		}
		s.resolveUS = append(s.resolveUS, time.Since(t).Seconds()*1e6)
		s.kinds = append(s.kinds, spec.Kind)
	}
	if rec != nil {
		s.tel = telemetry.New(nil)
	}
	s.srv = server.New(server.Config{Workers: 2, Parallel: 1, Store: s.store, Tel: s.tel})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.srv.Drain(ctx) // the listen error is the one to report
		return nil, err
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}
	s.cl = server.NewClient("http://"+ln.Addr().String(), s.hc)

	for i, raw := range s.pool {
		sp := rec.open("cold", "", parent)
		res, err := s.cl.Run(ctx, raw, nil)
		sp.close()
		if err == nil && !res.Found {
			err = fmt.Errorf("%w: pool spec %d found no answer", errCheck, i)
		}
		if err != nil {
			_ = s.close() // the cold-run error is the one to report
			return nil, err
		}
		s.want = append(s.want, answer(res))
	}
	return s, nil
}

func (s *serveInst) unit(ctx context.Context, parent span) (unitResult, error) {
	list := jobList(s.seed, s.batch)
	s.batch++
	var telBefore telemetry.MetricsSnapshot
	var memoBefore memo.Stats
	if s.tel != nil {
		telBefore, memoBefore = s.tel.Registry().Export(), s.store.Stats()
	}
	recs := make([]jobRecord, len(list))
	oks := make([]bool, len(list))
	var next atomic.Int64
	var wg sync.WaitGroup
	t := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(list) || ctx.Err() != nil {
					return
				}
				recs[i], oks[i] = s.job(ctx, list[i], parent)
			}
		}()
	}
	wg.Wait()
	u := unitResult{wall: time.Since(t).Seconds(), attempted: len(list)}
	for i, r := range recs {
		u.latencies = append(u.latencies, r.latency)
		if !oks[i] {
			u.failed++
		}
	}
	if s.tel != nil {
		u.jobs = recs
		u.sample = newSample(telBefore, s.tel.Registry().Export(), memoBefore, s.store.Stats(), s.store.Len())
	}
	return u, ctx.Err()
}

// job submits one pool spec, waits for its result and checks it. A
// refused, failed or wrong job is not ok.
func (s *serveInst) job(ctx context.Context, p int, parent span) (jobRecord, bool) {
	r := jobRecord{kind: s.kinds[p]}
	js := s.rec.open("job", "", parent)
	defer js.close()
	t := time.Now()
	sp := s.rec.open("client.submit", "", js)
	st, err := s.cl.Submit(ctx, s.pool[p])
	sp.close()
	if err == nil {
		js.setJob(st.ID)
		sp = s.rec.open("client.wait", st.ID, js)
		st, err = s.cl.Wait(ctx, st.ID, 0, nil)
		sp.close()
	}
	r.latency = time.Since(t).Seconds()
	switch {
	case err != nil:
	case st.State != server.StateDone:
		err = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	case answer(st.Result) != s.want[p]:
		err = fmt.Errorf("%w: job %s answered %s, want %s", errCheck, st.ID, answer(st.Result), s.want[p])
	default:
		r.queue = st.Started.Sub(st.Created).Seconds()
		r.run = st.Finished.Sub(st.Started).Seconds()
		r.inServer = st.Finished.Sub(st.Created).Seconds()
		return r, true
	}
	fmt.Fprintln(os.Stderr, "perfbench: job failed:", err)
	return r, false
}

func (s *serveInst) resolveTimes() []float64 { return s.resolveUS }
func (s *serveInst) retained() int           { return len(s.srv.Jobs()) }

// close drains the server, closes its listener and waits for Serve to
// return.
func (s *serveInst) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	if cerr := s.hs.Close(); err == nil {
		err = cerr
	}
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	s.hc.CloseIdleConnections()
	return err
}
