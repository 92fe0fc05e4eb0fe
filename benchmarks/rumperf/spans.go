package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/serve"
)

// span is one interval the harness measured around a call into a layer.
// Spans of one round, or of one ladder rung, share a trace and point at the
// span that encloses them. They are recorded from outside the program: a
// span per Do call, per round, per ladder block and per rung.
type span struct {
	Trace    string `json:"trace"`
	ID       int    `json:"span"`
	Parent   int    `json:"parent"` // 0: none
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Client   int    `json:"client"`
	Round    int    `json:"round"`
	Seq      int    `json:"seq"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	NOps     int    `json:"n_ops"`
	NWrites  int    `json:"n_writes"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	epoch time.Time
	spans []span
}

func (l *spanLog) add(s span) int {
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

func countWrites(reqs []serve.Request) int {
	n := 0
	for _, r := range reqs {
		if r.Op != serve.OpGet {
			n++
		}
	}
	return n
}

// addRound turns the samples of the round that just ran into spans. A
// client's calls are back to back, so call b starts where call b-1 ended and
// the per-call samples alone place every span.
func (l *spanLog) addRound(h *harness, round int, start time.Time) {
	trace := fmt.Sprintf("%s/round-%d", h.w.name, round)
	t0 := int64(start.Sub(l.epoch))
	end := t0
	for c := range h.ends {
		end = max(end, int64(h.ends[c].Sub(l.epoch)))
	}
	parent := l.add(span{Trace: trace, Name: "round", Workload: h.w.name, Round: round,
		StartNs: t0, EndNs: end, NOps: h.sz.clients * h.sz.chunk})
	for c, lat := range h.lat {
		at := t0
		for b, ns := range lat {
			lo := b * batchSize
			l.add(span{Trace: trace, Parent: parent, Name: "serve.Do", Workload: h.w.name,
				Client: c, Round: round, Seq: b, StartNs: at, EndNs: at + ns,
				NOps: batchSize, NWrites: countWrites(h.reqs[c][lo : lo+batchSize])})
			at += ns
		}
	}
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
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
