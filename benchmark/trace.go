package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
)

// span is one timed call. Spans of one operation share Op; Parent is the
// index of the enclosing span, -1 for an operation's root.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
}

// tracer keeps spans in memory; it is written out when the run ends. The
// closed loop has one client goroutine, so it needs no lock.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.t0) }

// durations groups span durations by name.
func (t *tracer) durations() map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s.End-s.Start)
	}
	return out
}

// printSelfTimes prints, per span name, the median self time: the span's
// duration minus the part of it its child spans cover (children of one
// operation never overlap, since one goroutine makes every call).
func (t *tracer) printSelfTimes(w io.Writer) {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string][]time.Duration{}
	for i, s := range t.spans {
		self[s.Name] = append(self[s.Name], s.End-s.Start-child[i])
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "span %-34s n=%-6d self_p50=%s\n", n, len(self[n]), quantile(self[n], 0.5).Round(time.Microsecond))
	}
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// series is one decoded entry of obs.Registry.WriteJSON.
type series struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels"`
	Kind   string            `json:"kind"`
	Value  int64             `json:"value"`
	Count  uint64            `json:"count"`
	Sum    uint64            `json:"sum"`
	P50    float64           `json:"p50"`
}

// snapshot maps seriesKey(name, labels) to the series' state at one
// instant.
type snapshot map[string]series

// seriesKey renders "name,k1=v1,k2=v2" with the labels sorted.
func seriesKey(name string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString(name)
	for _, k := range keys {
		fmt.Fprintf(&b, ",%s=%s", k, labels[k])
	}
	return b.String()
}

// readRegistry decodes the registry's JSON dump, the same figures the
// program serves on its /debug/vars endpoint.
func readRegistry(reg *obs.Registry) (snapshot, error) {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var all []series
	if err := json.Unmarshal(buf.Bytes(), &all); err != nil {
		return nil, fmt.Errorf("decode registry: %w", err)
	}
	out := make(snapshot, len(all))
	for _, s := range all {
		out[seriesKey(s.Name, s.Labels)] = s
	}
	return out, nil
}
