package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval the harness recorded around a call it made.
// Times are nanoseconds since the tracer started. Parent is the index of
// the enclosing span, -1 for a root; every span of one op shares its Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op_id"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex // the wire workload records from two client goroutines
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durations returns the length of every span called name, in nanoseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfStat is the per-name roll-up of selfTimes.
type selfStat struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
	Total int64  `json:"total_ns"`
	Self  int64  `json:"self_ns"`
}

// selfTimes attributes time to span names: a span's self time is its
// duration minus the part of its interval that its children cover.
// Children are clipped to the parent and their union is taken, so
// children that overlap each other (ops of two connections under one
// round) are not subtracted twice.
func selfTimes(spans []span) []selfStat {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	by := make(map[string]*selfStat)
	for id, s := range spans {
		ivs := kids[id]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered int64
		edge := s.Start
		for _, k := range ivs {
			lo, hi := max(k.lo, edge), min(k.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		st := by[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.Total += s.End - s.Start
		st.Self += s.End - s.Start - covered
	}
	out := make([]selfStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}
