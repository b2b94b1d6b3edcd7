package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public functions. Spans of one operation form a tree
// through Parent; a root (Parent 0) is the operation the user waits for.
//
// A replayed span was measured by re-running the operation's inputs
// through the layer after the real call returned (the daemon's own
// layers are not visible from outside its process). Its interval is
// shifted onto the parent's clock, so self-time arithmetic treats it as
// part of the parent.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Start  time.Time          `json:"start"`
	End    time.Time          `json:"end"`
	Replay bool               `json:"replay,omitempty"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay no bookkeeping.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add stores a finished span and returns its ID.
func (t *tracer) add(s span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens a span; end closes it.
func (t *tracer) begin(parent int, name string) int {
	return t.add(span{Parent: parent, Name: name, Start: time.Now()})
}

func (t *tracer) end(id int, attrs map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Attrs = attrs
}

// replay collects spans measured after the fact for one parent;
// attachReplay shifts them so the first starts where the parent started.
type replay struct {
	spans []span
}

// timed runs fn as a replayed span and returns its duration.
func (r *replay) timed(name string, attrs map[string]float64, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Replay: true, Attrs: attrs})
	return end.Sub(start), err
}

// total is the summed duration of the replayed spans.
func (r *replay) total() time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		d += s.End.Sub(s.Start)
	}
	return d
}

func (t *tracer) attachReplay(parent int, at time.Time, r *replay) {
	if t == nil || len(r.spans) == 0 {
		return
	}
	shift := at.Sub(r.spans[0].Start)
	for _, s := range r.spans {
		s.Parent = parent
		s.Start = s.Start.Add(shift)
		s.End = s.End.Add(shift)
		t.add(s)
	}
}

// layerStat aggregates every span of one name.
type layerStat struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
	Attrs map[string]float64 // summed over the spans
}

// layers returns per-name totals and self times, plus the summed
// duration of the roots (the traced end-to-end time). Self time counts
// only the part of a span inside its parent: a replayed layer can take
// longer than the request it replays, and the overflow is not part of
// the end-to-end time. So the self times of a tree add up to its root.
// Total is the span's own, unclipped duration.
func (t *tracer) layers() (map[string]*layerStat, time.Duration) {
	if t == nil {
		return map[string]*layerStat{}, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// A parent is always recorded before its children, so its clipped
	// interval is known when a child is reached.
	eff := make([]interval, len(t.spans))
	children := make(map[int][]interval)
	for k, s := range t.spans {
		iv := s.interval()
		if s.Parent != 0 {
			p := eff[s.Parent-1]
			if iv.start.Before(p.start) {
				iv.start = p.start
			}
			if iv.end.After(p.end) {
				iv.end = p.end
			}
			if iv.end.Before(iv.start) {
				iv.end = iv.start
			}
			children[s.Parent] = append(children[s.Parent], iv)
		}
		eff[k] = iv
	}
	out := make(map[string]*layerStat)
	var roots time.Duration
	for k, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name, Attrs: map[string]float64{}}
			out[s.Name] = st
		}
		st.Count++
		st.Total += s.End.Sub(s.Start)
		st.Self += selfTime(eff[k], children[s.ID])
		for key, v := range s.Attrs {
			st.Attrs[key] += v
		}
		if s.Parent == 0 {
			roots += s.End.Sub(s.Start)
		}
	}
	return out, roots
}

// printShares writes the self-time split of the traced end-to-end time,
// largest layer first. The shares add up to 100%.
func printShares(w *bufio.Writer, workload string, stats map[string]*layerStat, roots time.Duration) {
	list := make([]*layerStat, 0, len(stats))
	for _, st := range stats {
		list = append(list, st)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].Self > list[j].Self })
	fmt.Fprintf(w, "# %s: traced end-to-end %.3f s, self time by span\n", workload, roots.Seconds())
	for _, st := range list {
		fmt.Fprintf(w, "share %-34s n=%-6d self=%10.4f s  %5.1f%%\n",
			st.Name, st.Count, st.Self.Seconds(), 100*ratio(st.Self.Seconds(), roots.Seconds()))
	}
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
