package telemetry

import (
	"fmt"
	"testing"
	"time"
)

// fakeClock advances a fixed step per reading so deltas are predictable.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func newTestRecorder(maxJobs, maxEvents int) (*Recorder, *fakeClock) {
	r := NewRecorder(maxJobs, maxEvents)
	c := &fakeClock{t: time.Unix(1000, 0), step: time.Second}
	r.SetClock(c.now)
	return r, c
}

func TestRecorderPerKeyDeltas(t *testing.T) {
	r, _ := newTestRecorder(4, 16)
	r.Start("s-000001", 0)
	r.Record("s-000001", Event{Stage: StageSubmitted, Detail: "2 cells"})
	r.Record("s-000001", Event{Stage: StageDispatched, Key: "cell-a"})
	r.Record("s-000001", Event{Stage: StageDispatched, Key: "cell-b"})
	r.Record("s-000001", Event{Stage: StageCompleted, Key: "cell-a"})

	evs, dropped, ok := r.Snapshot("s-000001")
	if !ok || dropped != 0 || len(evs) != 4 {
		t.Fatalf("snapshot = %d events, dropped %d, ok %v", len(evs), dropped, ok)
	}
	for i, ev := range evs {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	// submitted: 1s after trace start (job-level chain).
	if evs[0].Seconds != 1 {
		t.Fatalf("submitted delta = %v", evs[0].Seconds)
	}
	// cell-a dispatched: first event for that key, 2s after start.
	if evs[1].Seconds != 2 {
		t.Fatalf("cell-a dispatched delta = %v", evs[1].Seconds)
	}
	// cell-a completed: 2s after its own dispatch, not 1s after cell-b's.
	if evs[3].Seconds != 2 {
		t.Fatalf("cell-a completed delta = %v", evs[3].Seconds)
	}
}

func TestRecorderExplicitSecondsDoNotAdvanceTimeline(t *testing.T) {
	r, _ := newTestRecorder(4, 16)
	r.Start("s-000001", 0)
	r.Record("s-000001", Event{Stage: StageLeased, Key: "k"})
	// Remote-measured attempt duration: carried through verbatim.
	r.Record("s-000001", Event{Stage: StageEvaluated, Key: "k", Attempt: 1, Seconds: 0.25})
	r.Record("s-000001", Event{Stage: StageReported, Key: "k"})

	evs, _, _ := r.Snapshot("s-000001")
	if evs[1].Seconds != 0.25 {
		t.Fatalf("evaluated seconds = %v, want 0.25", evs[1].Seconds)
	}
	// reported measures from leased (2 clock reads in between), not from
	// the evaluated event.
	if evs[2].Seconds != 2 {
		t.Fatalf("reported delta = %v, want 2", evs[2].Seconds)
	}
}

// TestRecorderRecordBatch records a batch across two jobs and an unknown
// one: every event lands on its own job in order, with one shared time
// and the same per-cell deltas Record would give, and the observer sees
// only the recorded events.
func TestRecorderRecordBatch(t *testing.T) {
	r, _ := newTestRecorder(4, 16)
	var stages []string
	r.SetStageObserver(func(stage string, _ float64) { stages = append(stages, stage) })
	r.Start("s-000001", 2)                                     // clock 1001
	r.Start("s-000002", 1)                                     // clock 1002
	r.Record("s-000001", Event{Stage: StageLeased, Key: "k1"}) // clock 1003
	stages = nil
	batch := []Entry{
		{Job: "s-000001", Event: Event{Stage: StageEvaluated, Key: "k1", Attempt: 1, Seconds: 0.25}},
		{Job: "s-000001", Event: Event{Stage: StageReported, Key: "k1"}},
		{Job: "never-started", Event: Event{Seq: 99, Stage: StageStored, Key: "k9"}},
		{Job: "s-000002", Event: Event{Stage: StageStored, Key: "k2"}},
	}
	r.RecordBatch(batch) // clock 1004, once

	evs, _, _ := r.Snapshot("s-000001")
	if len(evs) != 3 || evs[1].Stage != StageEvaluated || evs[2].Stage != StageReported {
		t.Fatalf("job 1 events = %+v", evs)
	}
	if evs[1].Seconds != 0.25 || evs[2].Seconds != 1 || evs[2].Seq != 3 {
		t.Fatalf("job 1 batch events = %+v, want explicit 0.25 s then a 1 s delta at seq 3", evs[1:])
	}
	if !evs[1].Time.Equal(evs[2].Time) {
		t.Fatalf("batch events read the clock twice: %v, %v", evs[1].Time, evs[2].Time)
	}
	evs2, _, _ := r.Snapshot("s-000002")
	if len(evs2) != 1 || evs2[0].Key != "k2" || evs2[0].Seconds != 2 || !evs2[0].Time.Equal(evs[2].Time) {
		t.Fatalf("job 2 events = %+v", evs2)
	}
	if batch[2].Seq != 0 || batch[3].Seq != 1 {
		t.Fatalf("batch seqs = %d (unknown job), %d; want 0 and 1", batch[2].Seq, batch[3].Seq)
	}
	if len(stages) != 3 || stages[0] != StageEvaluated || stages[2] != StageStored {
		t.Fatalf("observer stages = %v, want the 3 recorded events", stages)
	}
}

func TestRecorderEviction(t *testing.T) {
	r, _ := newTestRecorder(2, 16)
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("s-%06d", i)
		r.Start(id, 0)
		r.Record(id, Event{Stage: StageDispatched, Key: fmt.Sprintf("k%d", i)})
	}
	if _, _, ok := r.Snapshot("s-000000"); ok {
		t.Fatalf("oldest trace should be evicted")
	}
	if _, _, ok := r.Snapshot("s-000002"); !ok {
		t.Fatalf("newest trace missing")
	}
	if r.Jobs() != 2 {
		t.Fatalf("Jobs = %d, want 2", r.Jobs())
	}
	// Events for the evicted job are dropped, not revived.
	r.Record("s-000000", Event{Stage: StageStored, Key: "k0"})
	if _, _, ok := r.Snapshot("s-000000"); ok || r.Jobs() != 2 {
		t.Fatalf("recording into an evicted trace revived it")
	}
}

func TestRecorderEventCap(t *testing.T) {
	r, _ := newTestRecorder(2, 3)
	r.Start("s-000001", 0)
	for i := 0; i < 5; i++ {
		r.Record("s-000001", Event{Stage: StageDispatched, Key: fmt.Sprintf("k%d", i)})
	}
	evs, dropped, ok := r.Snapshot("s-000001")
	if !ok || len(evs) != 3 || dropped != 2 {
		t.Fatalf("got %d events dropped %d", len(evs), dropped)
	}
}

func TestRecorderStageObserver(t *testing.T) {
	r, _ := newTestRecorder(2, 16)
	var stages []string
	var secs []float64
	r.SetStageObserver(func(stage string, s float64) {
		stages = append(stages, stage)
		secs = append(secs, s)
	})
	r.Start("s-000001", 0)
	r.Record("s-000001", Event{Stage: StageSubmitted})
	r.Record("s-000001", Event{Stage: StageEvaluated, Key: "k", Seconds: 0.5})
	if len(stages) != 2 || stages[0] != StageSubmitted || stages[1] != StageEvaluated {
		t.Fatalf("observer stages = %v", stages)
	}
	if secs[1] != 0.5 {
		t.Fatalf("observer seconds = %v", secs)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Start("x", 0)
	r.Record("x", Event{Stage: StageSubmitted})
	r.RecordBatch([]Entry{{Job: "x", Event: Event{Stage: StageStored}}})
	r.SetClock(time.Now)
	r.SetStageObserver(nil)
	if _, _, ok := r.Snapshot("x"); ok {
		t.Fatalf("nil recorder returned a snapshot")
	}
	if r.Jobs() != 0 {
		t.Fatalf("nil recorder has jobs")
	}
}

func TestRecorderUnknownJobDropped(t *testing.T) {
	r, _ := newTestRecorder(2, 16)
	r.Record("never-started", Event{Stage: StageSubmitted})
	if _, _, ok := r.Snapshot("never-started"); ok {
		t.Fatalf("unknown job grew a trace")
	}
}
