package main

// Spans of the traced phase, recorded from outside the system: one span
// per transaction (id = arrival sequence, from its due time to its
// completion), one child span around every call the benchmark makes
// into the system, and one span per device call taken by the timedDev
// decorator. All are kept in memory and written out after the phase.

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// tracedTxns bounds how many transactions of the traced phase record
// spans (the first ones); deviceSpans bounds the device spans kept.
// Counters and the obs sensor cover the whole phase regardless.
const (
	tracedTxns  = 20000
	deviceSpans = 200000
)

// span is one record of the trace file. Parent is the span that caused
// it; 0 is the phase span.
type span struct {
	Txn    int64  `json:"txn"` // arrival sequence, -1 for spans of no single transaction
	ID     int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the phase began
	End    int64  `json:"end_ns"`
}

// spanLog is one stream's span recorder. A nil *spanLog records
// nothing, so call sites need no tracing-on check. It is written by the
// stream's goroutine only; the device decorator reads cur from that
// same goroutine.
type spanLog struct {
	t0    time.Time
	base  int // global id of spans[0], assigned when logs are merged
	spans []span
	txn   int // index of the open transaction span, -1 if none
	cur   int // index of the open call span, -1 if none
}

func newSpanLog(t0 time.Time) *spanLog { return &spanLog{t0: t0, txn: -1, cur: -1} }

// beginTxn opens the transaction span of arrival seq at its due time.
func (l *spanLog) beginTxn(seq int64, dueNs int64) {
	if l == nil {
		return
	}
	l.txn = -1
	if seq >= tracedTxns {
		return
	}
	l.txn = len(l.spans)
	l.spans = append(l.spans, span{Txn: seq, Parent: -1, Name: "txn", Start: dueNs})
}

func (l *spanLog) endTxn() {
	if l == nil || l.txn < 0 {
		return
	}
	l.spans[l.txn].End = int64(time.Since(l.t0))
	l.txn = -1
}

// open starts a call span under the open transaction span and returns
// its handle for close; -1 when nothing is being recorded.
func (l *spanLog) open(name string) int {
	if l == nil || l.txn < 0 {
		return -1
	}
	return l.openAt(name, int64(time.Since(l.t0)))
}

// openAt is open for a call that began at startNs.
func (l *spanLog) openAt(name string, startNs int64) int {
	if l == nil || l.txn < 0 {
		return -1
	}
	l.cur = len(l.spans)
	l.spans = append(l.spans, span{Txn: l.spans[l.txn].Txn, Parent: l.txn, Name: name, Start: startNs})
	return l.cur
}

func (l *spanLog) close(i int) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].End = int64(time.Since(l.t0))
	l.cur = -1
}

// devLog collects device spans from whichever goroutine makes the
// device call. A call made by a registered stream goroutine while one
// of its call spans is open is caused by that span; any other (a server
// connection, a group-commit leader flushing for others after its own
// span closed, the GC or checkpoint goroutine) is caused by the phase.
type devLog struct {
	t0      time.Time
	streams sync.Map // goroutine id → *spanLog

	mu    sync.Mutex
	spans []devSpan
}

type devSpan struct {
	name       string
	start, end int64
	owner      *spanLog // nil: caused by the phase
	parent     int      // index in owner.spans
}

func (d *devLog) register(l *spanLog) { d.streams.Store(goid(), l) }
func (d *devLog) unregister()         { d.streams.Delete(goid()) }

func (d *devLog) add(name string, start, end time.Time) {
	s := devSpan{name: name, start: int64(start.Sub(d.t0)), end: int64(end.Sub(d.t0)), parent: -1}
	if v, ok := d.streams.Load(goid()); ok {
		if l := v.(*spanLog); l.cur >= 0 {
			s.owner, s.parent = l, l.cur
		}
	}
	d.mu.Lock()
	if len(d.spans) < deviceSpans {
		d.spans = append(d.spans, s)
	}
	d.mu.Unlock()
}

// goid returns the calling goroutine's id, parsed from its stack
// header ("goroutine 123 [running]:"). About a microsecond; only the
// traced phase pays it, once per device call.
func goid() uint64 {
	var buf [40]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// mergeSpans numbers every span of the phase: 0 is the phase span,
// then each stream's spans, then the device spans.
func mergeSpans(phase string, durNs int64, logs []*spanLog, dl *devLog) []span {
	out := []span{{Txn: -1, ID: 0, Parent: -1, Name: "phase." + phase, End: durNs}}
	for _, l := range logs {
		l.base = len(out)
		for _, s := range l.spans {
			s.ID = len(out)
			if s.Parent < 0 {
				s.Parent = 0
			} else {
				s.Parent += l.base
			}
			out = append(out, s)
		}
	}
	for _, d := range dl.spans {
		s := span{Txn: -1, ID: len(out), Name: d.name, Start: d.start, End: d.end}
		if d.owner != nil {
			s.Parent = d.owner.base + d.parent
			s.Txn = d.owner.spans[d.parent].Txn
		}
		out = append(out, s)
	}
	return out
}

// selfTimes returns, per span name, the mean self time in ns and the
// span count: a span's duration minus the part of it its children
// cover. Children of one span come from one goroutine and do not
// overlap, so the covered part is the sum of their clipped durations.
func selfTimes(spans []span) (meanNs map[string]float64, count map[string]int) {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			covered[s.Parent] += hi - lo
		}
	}
	sum := map[string]float64{}
	count = map[string]int{}
	for i, s := range spans {
		if s.End < s.Start {
			continue // left open by a failed call path
		}
		sum[s.Name] += float64(max(s.End-s.Start-covered[i], 0))
		count[s.Name]++
	}
	meanNs = map[string]float64{}
	for k, v := range sum {
		meanNs[k] = v / float64(count[k])
	}
	return meanNs, count
}

// writeTrace writes the spans, ordered by start time, as one JSON
// document.
func writeTrace(path, workload string, seed int64, spans []span) error {
	sorted := append([]span(nil), spans...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Start < sorted[b].Start })
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Note     string `json:"note"`
		Spans    []span `json:"spans"`
	}{workload, seed, "times are ns since the traced phase began; parent 0 is the phase span", sorted}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
