package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/archsim/fusleep"
	"github.com/archsim/fusleep/internal/store"
)

// fakeClock drives the coordinator's lease machinery deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2002, 12, 2, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// testCells expands a small grid into distinct cells for routing tests.
func testCells(t *testing.T, n int) []fusleep.Cell {
	t.Helper()
	eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
	cells := eng.Cells(fusleep.Grid{
		Benchmarks: []string{"gcc"},
		FUCounts:   []int{1, 2, 3, 4, 5, 6},
		Window:     testWindow,
	})
	if len(cells) < n {
		t.Fatalf("grid expanded to %d cells, need %d", len(cells), n)
	}
	return cells[:n]
}

// groupedCells expands machines FU counts (1..machines) × every policy on
// gcc and returns the cells grouped by SimKey: one group per machine, in
// grid order, every group the same size.
func groupedCells(t *testing.T, machines int) [][]fusleep.Cell {
	t.Helper()
	fus := make([]int, machines)
	for i := range fus {
		fus[i] = i + 1
	}
	eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
	cells := eng.Cells(fusleep.Grid{Benchmarks: []string{"gcc"}, FUCounts: fus, Window: testWindow})
	var groups [][]fusleep.Cell
	at := map[string]int{}
	for _, c := range cells {
		i, ok := at[c.SimKey()]
		if !ok {
			i = len(groups)
			at[c.SimKey()] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], c)
	}
	if len(groups) != machines || len(groups[0]) < 3 {
		t.Fatalf("grid grouped into %d SimKeys of %d cells, want %d of at least 3", len(groups), len(groups[0]), machines)
	}
	return groups
}

// distinctSimKeyCells returns n cells with pairwise distinct SimKeys.
func distinctSimKeyCells(t *testing.T, n int) []fusleep.Cell {
	t.Helper()
	var cells []fusleep.Cell
	for _, g := range groupedCells(t, n) {
		cells = append(cells, g[0])
	}
	return cells
}

// requireContiguousGroups fails if one SimKey shows up in two separate
// runs of consecutive leased cells (a group split by Fetch).
func requireContiguousGroups(t *testing.T, leased []LeaseCell) {
	t.Helper()
	seen := map[string]bool{}
	for i, lc := range leased {
		k := lc.Cell.SimKey()
		if i > 0 && leased[i-1].Cell.SimKey() == k {
			continue
		}
		if seen[k] {
			t.Fatalf("SimKey %s leased in two separate runs", k)
		}
		seen[k] = true
	}
}

// reportOK reports every leased cell as a success carrying its own cell.
func reportOK(t *testing.T, c *Coordinator, id string, leased []LeaseCell) int {
	t.Helper()
	reps := make([]CellReport, len(leased))
	for i, lc := range leased {
		res := fusleep.CellResult{Cell: lc.Cell, RelEnergy: float64(i + 1)}
		reps[i] = CellReport{Lease: lc.Lease, Key: lc.Key, Result: &res}
	}
	accepted, err := c.Report(id, reps)
	if err != nil {
		t.Fatalf("Report(%s) = %v", id, err)
	}
	return accepted
}

// outcome captures one task's Done call.
type outcome struct {
	worker string
	res    fusleep.CellResult
	err    error
}

// encodeResults is a result hook that leaves each settled cell's
// canonical bytes on it, as the server's hook does.
func encodeResults(results []Settled) {
	for i := range results {
		results[i].Canon, results[i].Err = store.EncodeCell(results[i].Result)
	}
}

// dispatchTask dispatches a cell and returns the channel its Done fills,
// with the canonical bytes it got (if any) decoded.
func dispatchTask(t *testing.T, c *Coordinator, ctx context.Context, cell fusleep.Cell) <-chan outcome {
	t.Helper()
	ch := make(chan outcome, 1)
	err := c.Dispatch(Task{Ctx: ctx, Cell: cell, Done: func(_ int, worker string, canon []byte, err error) {
		var res fusleep.CellResult
		if canon != nil && err == nil {
			err = json.Unmarshal(canon, &res)
		}
		ch <- outcome{worker, res, err}
	}})
	if err != nil {
		t.Fatalf("Dispatch(%s) = %v", cell.Key(), err)
	}
	return ch
}

// fetchAll drains a worker's queue without long-polling.
func fetchAll(t *testing.T, c *Coordinator, id string) []LeaseCell {
	t.Helper()
	cells, err := c.Fetch(context.Background(), id, 100, 0)
	if err != nil {
		t.Fatalf("Fetch(%s) = %v", id, err)
	}
	return cells
}

func TestCoordinatorRoundtrip(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Now: clk.now})
	var journaled []string
	c.SetOnResult(func(results []Settled) {
		for _, r := range results {
			journaled = append(journaled, r.Key)
		}
		encodeResults(results)
	})

	id, ttl := c.Register("alpha")
	if id == "" || ttl != 10*time.Second {
		t.Fatalf("Register = %q, %v", id, ttl)
	}
	cell := testCells(t, 1)[0]
	done := dispatchTask(t, c, context.Background(), cell)

	leased := fetchAll(t, c, id)
	if len(leased) != 1 || leased[0].Key != cell.Key() {
		t.Fatalf("leased %+v, want the dispatched cell", leased)
	}
	want := fusleep.CellResult{Cell: cell, RelEnergy: 0.5, LeakageFraction: 0.25}
	accepted, err := c.Report(id, []CellReport{{Lease: leased[0].Lease, Key: leased[0].Key, Result: &want}})
	if err != nil || accepted != 1 {
		t.Fatalf("Report = %d, %v", accepted, err)
	}
	got := <-done
	if got.err != nil || got.worker != "alpha" || got.res.RelEnergy != 0.5 {
		t.Fatalf("outcome = %+v", got)
	}
	if len(journaled) != 1 || journaled[0] != cell.Key() {
		t.Fatalf("onResult saw %v", journaled)
	}
	st := c.Stats()
	if st.Dispatched != 1 || st.Completed != 1 || st.Queued != 0 || st.Leased != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCoordinatorErrorReportRebuildsTypedError(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Now: clk.now})
	id, _ := c.Register("")
	cell := testCells(t, 1)[0]
	done := dispatchTask(t, c, context.Background(), cell)
	leased := fetchAll(t, c, id)

	wireErr := ToWireError(&fusleep.CellError{Key: cell.Key(), Attempt: 3, Transient: true, Err: errors.New("boom")})
	if _, err := c.Report(id, []CellReport{{Lease: leased[0].Lease, Key: leased[0].Key, Error: wireErr}}); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got.worker != id {
		t.Errorf("unnamed worker should report under its id, got %q", got.worker)
	}
	var ce *fusleep.CellError
	if !errors.As(got.err, &ce) || !ce.Transient || ce.Attempt != 3 {
		t.Fatalf("error %v did not rebuild as the typed transient CellError", got.err)
	}
	if st := c.Stats(); st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCoordinatorDuplicateDispatchJoins(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Now: clk.now})
	c.SetOnResult(encodeResults)
	id, _ := c.Register("w")
	cell := testCells(t, 1)[0]
	d1 := dispatchTask(t, c, context.Background(), cell)
	d2 := dispatchTask(t, c, context.Background(), cell)

	leased := fetchAll(t, c, id)
	if len(leased) != 1 {
		t.Fatalf("duplicate dispatch leased %d cells, want 1", len(leased))
	}
	res := fusleep.CellResult{Cell: cell, RelEnergy: 0.7}
	if _, err := c.Report(id, []CellReport{{Lease: leased[0].Lease, Key: leased[0].Key, Result: &res}}); err != nil {
		t.Fatal(err)
	}
	for i, ch := range []<-chan outcome{d1, d2} {
		if got := <-ch; got.err != nil || got.res.RelEnergy != 0.7 {
			t.Fatalf("waiter %d outcome = %+v", i, got)
		}
	}
	if st := c.Stats(); st.Joins != 1 || st.Dispatched != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCoordinatorBackpressureBlocksDispatch(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Now: clk.now, QueueDepth: 2})
	id, _ := c.Register("w")
	// Distinct SimKeys, so each cell is its own group and a max-1 fetch
	// frees exactly one slot.
	cells := distinctSimKeyCells(t, 4)
	for _, cell := range cells[:2] {
		dispatchTask(t, c, context.Background(), cell)
	}

	// The third distinct cell must block until a fetch frees a slot.
	blocked := make(chan error, 1)
	go func() {
		blocked <- c.Dispatch(Task{Ctx: context.Background(), Cell: cells[2],
			Done: func(int, string, []byte, error) {}})
	}()
	select {
	case err := <-blocked:
		t.Fatalf("dispatch into a full queue returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if got, err := c.Fetch(context.Background(), id, 1, 0); err != nil || len(got) != 1 {
		t.Fatalf("Fetch = %v, %v", got, err)
	}
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatalf("unblocked dispatch = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dispatch still blocked after a fetch freed a slot")
	}

	// A dispatch canceled while blocked returns the context error.
	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan error, 1)
	go func() {
		canceled <- c.Dispatch(Task{Ctx: ctx, Cell: cells[3],
			Done: func(int, string, []byte, error) {}})
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-canceled:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled dispatch = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled dispatch never returned")
	}
}

func TestCoordinatorOrphansRouteOnRegister(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Now: clk.now})
	cell := testCells(t, 1)[0]
	done := dispatchTask(t, c, context.Background(), cell) // no workers yet

	if st := c.Stats(); st.Unassigned != 1 {
		t.Fatalf("stats = %+v, want 1 orphan", st)
	}
	id, _ := c.Register("late")
	leased := fetchAll(t, c, id)
	if len(leased) != 1 || leased[0].Key != cell.Key() {
		t.Fatalf("late worker leased %+v", leased)
	}
	res := fusleep.CellResult{Cell: cell, RelEnergy: 1}
	if _, err := c.Report(id, []CellReport{{Lease: leased[0].Lease, Key: leased[0].Key, Result: &res}}); err != nil {
		t.Fatal(err)
	}
	if got := <-done; got.err != nil || got.worker != "late" {
		t.Fatalf("outcome = %+v", got)
	}
}

func TestCoordinatorRebalanceOnJoin(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Now: clk.now, QueueDepth: 100})
	first, _ := c.Register("first")
	cells := distinctSimKeyCells(t, 6)
	for _, cell := range cells {
		dispatchTask(t, c, context.Background(), cell)
	}
	second, _ := c.Register("second")

	// Every queued cell must now sit on the rendezvous pick of its SimKey,
	// and at least one should have moved (6 SimKeys over 2 workers).
	got := map[string]string{}
	for _, id := range []string{first, second} {
		for _, lc := range fetchAll(t, c, id) {
			got[lc.Key] = id
		}
	}
	if len(got) != len(cells) {
		t.Fatalf("fetched %d cells, want %d", len(got), len(cells))
	}
	for _, cell := range cells {
		key := cell.Key()
		if want := RendezvousPick(cell.SimKey(), []string{first, second}); got[key] != want {
			t.Errorf("key %s on %s, rendezvous pick of its SimKey is %s", key, got[key], want)
		}
	}
	if st := c.Stats(); st.Rebalanced == 0 {
		t.Logf("note: no keys rebalanced (all %d picked the first worker)", len(cells))
	}
}

func TestCoordinatorExpiryRequeuesLeasedWork(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Now: clk.now, WorkerTTL: 10 * time.Second})
	w1, _ := c.Register("doomed")
	cell := testCells(t, 1)[0]
	done := dispatchTask(t, c, context.Background(), cell)
	leased := fetchAll(t, c, w1)
	if len(leased) != 1 {
		t.Fatalf("leased %+v", leased)
	}

	// A second worker joins; the first goes silent past its TTL.
	w2, _ := c.Register("survivor")
	clk.advance(9 * time.Second)
	if err := c.Heartbeat(w2, nil); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Second) // w1's lease (t0+10s) has now lapsed
	c.Expire()

	st := c.Stats()
	if st.Expired != 1 || st.Requeues != 1 || st.Workers != 1 {
		t.Fatalf("stats after expiry = %+v", st)
	}
	// The survivor inherits the in-flight cell under a fresh lease.
	requeued := fetchAll(t, c, w2)
	if len(requeued) != 1 || requeued[0].Key != cell.Key() || requeued[0].Lease == leased[0].Lease {
		t.Fatalf("requeued = %+v (original lease %d)", requeued, leased[0].Lease)
	}
	// The dead worker's late report bounces: it must re-register.
	res := fusleep.CellResult{Cell: cell, RelEnergy: 0.9}
	if _, err := c.Report(w1, []CellReport{{Lease: leased[0].Lease, Key: cell.Key(), Result: &res}}); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("dead worker's report = %v, want ErrUnknownWorker", err)
	}
	// The survivor's report settles the task exactly once.
	if accepted, err := c.Report(w2, []CellReport{{Lease: requeued[0].Lease, Key: cell.Key(), Result: &res}}); err != nil || accepted != 1 {
		t.Fatalf("survivor report = %d, %v", accepted, err)
	}
	if got := <-done; got.err != nil || got.worker != "survivor" {
		t.Fatalf("outcome = %+v", got)
	}
	select {
	case extra := <-done:
		t.Fatalf("task settled twice: %+v", extra)
	default:
	}
}

func TestCoordinatorStaleReportDiscarded(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Now: clk.now})
	id, _ := c.Register("w")
	cell := testCells(t, 1)[0]
	done := dispatchTask(t, c, context.Background(), cell)
	leased := fetchAll(t, c, id)
	res := fusleep.CellResult{Cell: cell, RelEnergy: 0.4}
	rep := []CellReport{{Lease: leased[0].Lease, Key: leased[0].Key, Result: &res}}
	if accepted, _ := c.Report(id, rep); accepted != 1 {
		t.Fatalf("first report accepted %d", accepted)
	}
	<-done
	// Replaying the same lease (a retried report after a network blip) is
	// acknowledged but discarded.
	accepted, err := c.Report(id, rep)
	if err != nil || accepted != 0 {
		t.Fatalf("replayed report = %d, %v", accepted, err)
	}
	if st := c.Stats(); st.Stale != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCoordinatorDeregisterRequeues(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Now: clk.now})
	w1, _ := c.Register("leaving")
	w2, _ := c.Register("staying")
	cells := testCells(t, 4)
	for _, cell := range cells {
		dispatchTask(t, c, context.Background(), cell)
	}
	fetchAll(t, c, w1) // lease whatever routed to w1
	if err := c.Deregister(w1); err != nil {
		t.Fatal(err)
	}
	if err := c.Heartbeat(w1, nil); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("heartbeat after bye = %v", err)
	}
	// Everything — queued and leased — now lives on the survivor.
	got := fetchAll(t, c, w2)
	if len(got) != len(cells) {
		t.Fatalf("survivor fetched %d cells, want %d", len(got), len(cells))
	}
}

func TestCoordinatorQuiesceAndCanceledTasks(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Now: clk.now})
	id, _ := c.Register("w")
	cell := testCells(t, 1)[0]
	ctx, cancel := context.WithCancel(context.Background())
	done := dispatchTask(t, c, ctx, cell)

	cancel()
	if err := c.Quiesce(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("Quiesce = %v", err)
	}
	got := <-done
	if !errors.Is(got.err, context.Canceled) || got.worker != "" {
		t.Fatalf("canceled task outcome = %+v", got)
	}
	// The canceled assignment never reaches the worker.
	if leftover := fetchAll(t, c, id); len(leftover) != 0 {
		t.Fatalf("canceled work leased anyway: %+v", leftover)
	}
}

func TestCoordinatorFetchLeasesOneWholeGroup(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Now: clk.now})
	id, _ := c.Register("w")
	groups := groupedCells(t, 2)
	a, b := groups[0], groups[1]
	// Interleave the two machines' cells at dispatch.
	for i := range a {
		dispatchTask(t, c, context.Background(), a[i])
		dispatchTask(t, c, context.Background(), b[i])
	}
	if st := c.Stats(); st.Queued != len(a)+len(b) {
		t.Fatalf("Queued = %d, want %d cells", st.Queued, len(a)+len(b))
	}
	for _, want := range [][]fusleep.Cell{a, b} {
		got, err := c.Fetch(context.Background(), id, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("max-1 fetch leased %d cells, want the whole %d-cell group", len(got), len(want))
		}
		for i, lc := range got {
			if lc.Key != want[i].Key() {
				t.Fatalf("lease %d = %s, want %s (one group, dispatch order)", i, lc.Key, want[i].Key())
			}
		}
		if n := reportOK(t, c, id, got); n != len(want) {
			t.Fatalf("accepted %d of %d", n, len(want))
		}
	}
	if st := c.Stats(); st.Queued != 0 || st.Leased != 0 || st.Completed != uint64(len(a)+len(b)) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCoordinatorGroupSplitByQueueDepthSettlesOnce(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Now: clk.now, QueueDepth: 2})
	id, _ := c.Register("w")
	group := groupedCells(t, 1)[0]

	// The feeder blocks once two of the group's cells are queued, so the
	// group reaches the worker across several fetches.
	var mu sync.Mutex
	settled := map[int]int{}
	fed := make(chan error, 1)
	go func() {
		for i, cell := range group {
			err := c.Dispatch(Task{Ctx: context.Background(), Cell: cell, Index: i,
				Done: func(index int, _ string, _ []byte, err error) {
					mu.Lock()
					settled[index]++
					mu.Unlock()
				}})
			if err != nil {
				fed <- err
				return
			}
		}
		fed <- nil
	}()
	fetches, leased := 0, 0
	for leased < len(group) {
		got, err := c.Fetch(context.Background(), id, 1, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) > 2 {
			t.Fatalf("fetch leased %d cells past a queue depth of 2", len(got))
		}
		fetches++
		leased += reportOK(t, c, id, got)
	}
	if err := <-fed; err != nil {
		t.Fatalf("dispatch = %v", err)
	}
	if fetches < 2 {
		t.Fatalf("group of %d arrived in %d fetch; want it split by QueueDepth", len(group), fetches)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, cell := range group {
		if n := settled[i]; n != 1 {
			t.Errorf("cell %s settled %d times, want 1", cell.Key(), n)
		}
	}
	if st := c.Stats(); st.Completed != uint64(len(group)) || st.Stale != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCoordinatorRebalanceMovesWholeGroups(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Now: clk.now, QueueDepth: 100})
	first, _ := c.Register("first")
	groups := groupedCells(t, 6)
	for _, g := range groups {
		for _, cell := range g {
			dispatchTask(t, c, context.Background(), cell)
		}
	}
	second, _ := c.Register("second")
	live := []string{first, second}

	where := map[string]string{} // SimKey -> worker that leased it
	count := map[string]int{}
	for _, id := range live {
		leased := fetchAll(t, c, id)
		requireContiguousGroups(t, leased)
		for _, lc := range leased {
			k := lc.Cell.SimKey()
			if w, ok := where[k]; ok && w != id {
				t.Fatalf("SimKey %s split across %s and %s", k, w, id)
			}
			where[k] = id
			count[k]++
		}
	}
	moved := 0
	for _, g := range groups {
		k := g[0].SimKey()
		if want := RendezvousPick(k, live); where[k] != want {
			t.Errorf("SimKey %s on %s, rendezvous pick is %s", k, where[k], want)
		}
		if count[k] != len(g) {
			t.Errorf("SimKey %s leased %d cells, want %d", k, count[k], len(g))
		}
		if where[k] == second {
			moved += len(g)
		}
	}
	if moved == 0 {
		t.Fatal("no group picked the joining worker; the fixture no longer exercises rebalance")
	}
	if st := c.Stats(); st.Rebalanced != uint64(moved) {
		t.Fatalf("Rebalanced = %d, want %d (whole groups)", st.Rebalanced, moved)
	}
}

func TestCoordinatorExpiryRequeuesLeasedGroup(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{Now: clk.now, WorkerTTL: 10 * time.Second})
	w1, _ := c.Register("doomed")
	group := groupedCells(t, 1)[0]
	done := make([]<-chan outcome, len(group))
	for i, cell := range group {
		done[i] = dispatchTask(t, c, context.Background(), cell)
	}
	stale, err := c.Fetch(context.Background(), w1, 1, 0)
	if err != nil || len(stale) != len(group) {
		t.Fatalf("doomed leased %d cells (%v), want the whole group of %d", len(stale), err, len(group))
	}

	w2, _ := c.Register("survivor")
	clk.advance(9 * time.Second)
	if err := c.Heartbeat(w2, nil); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Second)
	c.Expire()
	if st := c.Stats(); st.Expired != 1 || st.Requeues != uint64(len(group)) {
		t.Fatalf("stats after expiry = %+v, want all %d cells of the group requeued", st, len(group))
	}

	// The survivor inherits the group whole, in its original order, under
	// fresh leases.
	requeued, err := c.Fetch(context.Background(), w2, 1, 0)
	if err != nil || len(requeued) != len(group) {
		t.Fatalf("survivor leased %d cells (%v), want %d", len(requeued), err, len(group))
	}
	for i, lc := range requeued {
		if lc.Key != group[i].Key() || lc.Lease == stale[i].Lease {
			t.Fatalf("requeued lease %d = %+v, was %+v", i, lc, stale[i])
		}
	}

	// The dead worker's group report bounces; re-registered, its stale
	// leases are acknowledged and discarded.
	if _, err := c.Report(w1, []CellReport{{Lease: stale[0].Lease, Key: stale[0].Key}}); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("dead worker's report = %v, want ErrUnknownWorker", err)
	}
	back, _ := c.Register("doomed")
	if n := reportOK(t, c, back, stale); n != 0 {
		t.Fatalf("stale group report accepted %d cells, want 0", n)
	}
	if n := reportOK(t, c, w2, requeued); n != len(group) {
		t.Fatalf("survivor report accepted %d of %d", n, len(group))
	}
	for i, ch := range done {
		if got := <-ch; got.err != nil || got.worker != "survivor" {
			t.Fatalf("cell %d outcome = %+v", i, got)
		}
		select {
		case extra := <-ch:
			t.Fatalf("cell %d settled twice: %+v", i, extra)
		default:
		}
	}
	if st := c.Stats(); st.Stale != uint64(len(group)) || st.Completed != uint64(len(group)) {
		t.Fatalf("stats = %+v", st)
	}
}
