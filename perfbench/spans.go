package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanRecord is one interval the harness timed around a call into the
// program: set-up, a timed unit, Parse, Resolve, Run, Submit or Wait.
type spanRecord struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Job    string  `json:"job,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// recorder keeps spans in memory until the run ends. A nil recorder (an
// untraced run) records nothing.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []spanRecord
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// span is a handle on an open span; the zero span is a no-op and, as a
// parent, means "no parent".
type span struct {
	r  *recorder
	id int
}

// open starts a span named name under parent; job tags the spans of one
// job with the same identifier.
func (r *recorder) open(name, job string, parent span) span {
	if r == nil {
		return span{}
	}
	now := time.Since(r.origin).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, spanRecord{ID: id, Parent: parent.id, Name: name, Job: job, Start: now, End: now})
	return span{r: r, id: id}
}

// close ends the span.
func (s span) close() {
	if s.r == nil {
		return
	}
	now := time.Since(s.r.origin).Seconds()
	s.r.mu.Lock()
	s.r.spans[s.id-1].End = now
	s.r.mu.Unlock()
}

// setJob tags an open span with the job id the program assigned.
func (s span) setJob(job string) {
	if s.r == nil {
		return
	}
	s.r.mu.Lock()
	s.r.spans[s.id-1].Job = job
	s.r.mu.Unlock()
}

// selfFraction is the share of the named spans' time not covered by
// their children: the time the harness spent outside the program.
func (r *recorder) selfFraction(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var total, self float64
	for id, d := range selfTimes(r.spans) {
		if sp := r.spans[id-1]; sp.Name == name {
			total += sp.End - sp.Start
			self += d
		}
	}
	return ratio(self, total)
}

// selfTimes maps each span id to its duration minus the union of its
// children's intervals (clipped to the span).
func selfTimes(spans []spanRecord) map[int]float64 {
	kids := map[int][]spanRecord{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, end := 0.0, s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, end), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// writeFile writes every span as one JSON line, with its self time.
func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	r.mu.Lock()
	self := selfTimes(r.spans)
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		line := struct {
			spanRecord
			Self float64 `json:"self_s"`
		}{s, self[s.ID]}
		if err = enc.Encode(line); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
