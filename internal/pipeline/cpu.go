package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"github.com/archsim/fusleep/internal/bpred"
	"github.com/archsim/fusleep/internal/cache"
	"github.com/archsim/fusleep/internal/fu"
	"github.com/archsim/fusleep/internal/isa"
	"github.com/archsim/fusleep/internal/tlb"
)

type instState uint8

const (
	stWaiting instState = iota
	stExecuting
	stDone
)

// robEntry is one in-flight instruction after rename. It carries only the
// instruction fields the back end still needs — seq for ordering, addr for
// the memory pipes, class for unit selection — rather than the whole
// isa.Inst: sources are resolved to physical registers at dispatch and the
// front-end fields (PC, outcome, target) die with the fetch queue, so the
// slim entry halves the ROB's cache footprint and the per-dispatch copy.
type robEntry struct {
	seq        uint64
	addr       uint64
	state      instState
	class      isa.Class
	src1, src2 physRef
	dest       physRef
	oldPhys    int16
	sq         int32 // store-queue slot for stores, -1 otherwise
	mispredict bool
}

// reorderBuffer is a ring of in-flight instructions. Physical capacity is
// rounded up to a power of two so slot arithmetic is a mask, while the
// logical capacity (full()) stays exactly cfg.ROBSize. A slot index is
// stable for the lifetime of its entry, which is what lets the event wheel
// and ready list refer to instructions by slot.
type reorderBuffer struct {
	entries []robEntry
	mask    int
	size    int // logical capacity
	head    int
	count   int
}

func newROB(size int) *reorderBuffer {
	capacity := nextPow2(size)
	return &reorderBuffer{entries: make([]robEntry, capacity), mask: capacity - 1, size: size}
}

func (r *reorderBuffer) full() bool { return r.count == r.size }

// alloc returns the next tail slot for in-place filling, without claiming
// it: dispatch writes the entry through the pointer instead of copying a
// ~70-byte robEntry in, and then bumps r.count to claim the slot.
//
//fusleepvet:hotpath
func (r *reorderBuffer) alloc() (int, *robEntry) {
	idx := (r.head + r.count) & r.mask
	return idx, &r.entries[idx]
}

// at returns the entry at logical position i from the head (0 = oldest).
//
//fusleepvet:hotpath
func (r *reorderBuffer) at(i int) *robEntry {
	return &r.entries[(r.head+i)&r.mask]
}

//fusleepvet:hotpath
func (r *reorderBuffer) popFront() {
	r.head = (r.head + 1) & r.mask
	r.count--
}

// nextPow2 returns the smallest power of two >= n (n >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

type fetchEntry struct {
	inst       isa.Inst
	mispredict bool
}

// storeQEntry is one in-flight store. The store queue is ordered by seq:
// stores enter at dispatch (program order) and leave at commit (also
// program order), so the ring's entries are always seq-ascending front to
// back. Store-to-load forwarding relies on that invariant.
type storeQEntry struct {
	seq       uint64
	addr      uint64
	addrKnown bool
}

// ring is a fixed-capacity FIFO over preallocated slots. push returns the
// physical slot index, which is stable for the entry's lifetime — that is
// what lets robEntry.sq address its store directly.
type ring[T any] struct {
	entries []T
	head    int
	count   int
}

func newRing[T any](size int) *ring[T] { return &ring[T]{entries: make([]T, size)} }

func (q *ring[T]) full() bool { return q.count == len(q.entries) }

//fusleepvet:hotpath
func (q *ring[T]) push(e T) int {
	idx := q.head + q.count
	if idx >= len(q.entries) {
		idx -= len(q.entries)
	}
	q.entries[idx] = e
	q.count++
	return idx
}

// pushSlot claims the next slot and returns it for in-place filling,
// avoiding a pass-by-value copy of large entries. The caller must set
// every field — slots are recycled, not zeroed.
//
//fusleepvet:hotpath
func (q *ring[T]) pushSlot() *T {
	idx := q.head + q.count
	if idx >= len(q.entries) {
		idx -= len(q.entries)
	}
	q.count++
	return &q.entries[idx]
}

func (q *ring[T]) front() *T { return &q.entries[q.head] }

//fusleepvet:hotpath
func (q *ring[T]) popFront() {
	q.head++
	if q.head == len(q.entries) {
		q.head = 0
	}
	q.count--
}

// storeIndex maps word address -> ascending seqs of address-known stores in
// the store queue, so forwarding checks are a single map probe instead of a
// store-queue scan. Seq lists are recycled through spare to keep the
// steady state allocation-free.
type storeIndex struct {
	byWord map[uint64][]uint64
	spare  [][]uint64
}

func newStoreIndex() *storeIndex { return &storeIndex{byWord: make(map[uint64][]uint64)} }

//fusleepvet:hotpath
func (ix *storeIndex) add(word, seq uint64) {
	s, ok := ix.byWord[word]
	if !ok && len(ix.spare) > 0 {
		s = ix.spare[len(ix.spare)-1][:0]
		ix.spare = ix.spare[:len(ix.spare)-1]
	}
	// Stores become address-known in issue order, not program order, so
	// keep the (tiny, store-queue-bounded) list sorted on insert.
	s = append(s, seq)
	for i := len(s) - 1; i > 0 && s[i-1] > seq; i-- {
		s[i] = s[i-1]
		s[i-1] = seq
	}
	ix.byWord[word] = s
}

//fusleepvet:hotpath
func (ix *storeIndex) remove(word, seq uint64) {
	s := ix.byWord[word]
	for i, v := range s {
		if v == seq {
			copy(s[i:], s[i+1:])
			s = s[:len(s)-1]
			break
		}
	}
	if len(s) == 0 {
		delete(ix.byWord, word)
		if s != nil {
			ix.spare = append(ix.spare, s)
		}
		return
	}
	ix.byWord[word] = s
}

// olderThan reports whether an address-known store to word exists with
// seq < loadSeq, i.e. an older store the load can forward from.
//
//fusleepvet:hotpath
func (ix *storeIndex) olderThan(word, loadSeq uint64) bool {
	s := ix.byWord[word]
	return len(s) > 0 && s[0] < loadSeq
}

// batchStream is the optional bulk fast path a trace source can implement:
// NextBatch returns the next contiguous run of instructions and takes back
// the fully-consumed slice from the previous call for recycling. The CPU
// then fetches by indexing the batch instead of paying an interface call
// and a ~56-byte struct copy per instruction; sources without it are read
// through Next as before.
type batchStream interface {
	NextBatch(recycle []isa.Inst) ([]isa.Inst, bool)
}

// CPU is one simulation instance; build with New and execute with Run.
type CPU struct {
	cfg     Config
	stream  isa.Stream
	batched batchStream // non-nil when stream implements the bulk path

	pred *bpred.Predictor
	mem  *cache.Hierarchy
	itlb *tlb.TLB
	dtlb *tlb.TLB

	intRen, fpRen *renamer
	rob           *reorderBuffer

	// Per-class functional-unit pools. agu aliases alu when the machine
	// issues address generation down the integer ALU ports (cfg.AGUs == 0),
	// so loads and stores contend with integer ops exactly as the paper's
	// machine does; pools lists each distinct pool once for tick/flush.
	alu, agu, mult, fpalu, fpmult *classPool
	pools                         []*classPool

	intIQCount, fpIQCount int
	lqCount               int
	storeQ                *ring[storeQEntry]
	storeIdx              *storeIndex

	fetchQ *ring[fetchEntry]

	// wheel is the completion calendar: pending completions for cycle t
	// live in wheel[t & wheelMask]. Slot slices are drained in place and
	// keep their capacity, so scheduling is allocation-free after warmup.
	wheel     [][]int32
	wheelMask uint64

	// readyQ holds ROB slots of dispatched instructions whose operands are
	// all ready, in program (seq) order — the issue window. pendingSrcs
	// counts outstanding operands per ROB slot; intDeps/fpDeps list the
	// ROB slots sleeping on each physical register, woken by complete().
	readyQ      []int32
	pendingSrcs []uint8
	intDeps     [][]int32
	fpDeps      [][]int32

	cycle            uint64
	fetchBlockedTill uint64
	redirectPending  bool
	lastFetchLine    uint64
	haveFetchLine    bool
	fetchLineShift   uint // log2(L1I line size): PC -> fetch line

	// buf[bufPos:] is the unconsumed head of the instruction stream: a
	// whole generator batch on the bulk path, a one-element window (one)
	// refilled per instruction otherwise.
	buf       []isa.Inst
	bufPos    int
	one       [1]isa.Inst
	eof       bool
	committed uint64
	fetched   uint64

	loadForwards  uint64
	mispredStalls uint64
	quietCycles   uint64
	classCounts   [16]uint64
	lastProgress  uint64
	stopRequested bool
	wordAddrShift uint // store-forwarding match granularity (8B words)
}

// ErrDeadlock is returned when the pipeline stops making progress, which
// indicates a modeling bug rather than a workload property.
var ErrDeadlock = errors.New("pipeline: no forward progress")

// deadlockWindow is the progress watchdog horizon in cycles.
const deadlockWindow = 1_000_000

// maxLatency bounds the completion delay any single instruction can be
// scheduled with: the worst-case load (address generation, DTLB miss, then
// a miss all the way down the hierarchy) or the longest fixed execution
// latency. It sizes the event wheel.
func maxLatency(cfg Config) int {
	worstLoad := LatAGU + cfg.DTLB.MissPenalty +
		cfg.Mem.L1D.Latency + cfg.Mem.L2.Latency + cfg.Mem.MemLatency
	m := worstLoad
	// Every fixed latency passed to schedule(): execution latencies, the
	// forwarding fast path, and the 1-cycle Nop drain.
	for _, l := range [...]int{
		LatIntALU, LatBranch, LatIntMult, LatIntDiv,
		LatFPALU, LatFPMult, LatFPDiv,
		LatAGU + LatForward, 1,
	} {
		if l > m {
			m = l
		}
	}
	return m
}

// New builds a CPU over the given trace stream.
func New(cfg Config, stream isa.Stream) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if stream == nil {
		return nil, errors.New("pipeline: nil stream")
	}
	pred, err := bpred.New(cfg.Bpred)
	if err != nil {
		return nil, err
	}
	mem, err := cache.NewHierarchy(cfg.Mem)
	if err != nil {
		return nil, err
	}
	itlb, err := tlb.New(cfg.ITLB)
	if err != nil {
		return nil, err
	}
	dtlb, err := tlb.New(cfg.DTLB)
	if err != nil {
		return nil, err
	}
	intRen, err := newRenamer(isa.NumIntRegs, cfg.IntPhysRegs)
	if err != nil {
		return nil, err
	}
	fpRen, err := newRenamer(isa.NumFPRegs, cfg.FPPhysRegs)
	if err != nil {
		return nil, err
	}
	rob := newROB(cfg.ROBSize)
	// Wheel slots must cover [cycle+1, cycle+maxLatency] without wrap
	// collisions, so the span is one past the maximum schedulable delay.
	wheelSize := nextPow2(maxLatency(cfg) + 1)
	alu := newClassPool(cfg.IntALUs)
	agu := alu
	if cfg.AGUs > 0 {
		agu = newClassPool(cfg.AGUs)
	}
	mult := newClassPool(cfg.IntMults)
	fpalu := newClassPool(cfg.FPALUs)
	fpmult := newClassPool(cfg.FPMults)
	pools := []*classPool{alu}
	if agu != alu {
		pools = append(pools, agu)
	}
	pools = append(pools, mult, fpalu, fpmult)
	batched, _ := stream.(batchStream)
	return &CPU{
		cfg:            cfg,
		stream:         stream,
		batched:        batched,
		fetchLineShift: uint(bits.TrailingZeros(uint(cfg.Mem.L1I.LineSize))),
		pred:           pred,
		mem:            mem,
		itlb:           itlb,
		dtlb:           dtlb,
		intRen:         intRen,
		fpRen:          fpRen,
		rob:            rob,
		alu:            alu,
		agu:            agu,
		mult:           mult,
		fpalu:          fpalu,
		fpmult:         fpmult,
		pools:          pools,
		storeQ:         newRing[storeQEntry](cfg.StoreQSize),
		storeIdx:       newStoreIndex(),
		fetchQ:         newRing[fetchEntry](cfg.FetchQueueSize),
		wheel:          make([][]int32, wheelSize),
		wheelMask:      uint64(wheelSize - 1),
		readyQ:         make([]int32, 0, cfg.ROBSize),
		pendingSrcs:    make([]uint8, len(rob.entries)),
		intDeps:        make([][]int32, cfg.IntPhysRegs),
		fpDeps:         make([][]int32, cfg.FPPhysRegs),
		wordAddrShift:  3,
	}, nil
}

// ctxCheckMask throttles context polling in the run loop: the context is
// consulted once every ctxCheckMask+1 cycles, keeping the per-cycle cost
// negligible while still stopping a multi-million-cycle run within
// microseconds of cancellation.
const ctxCheckMask = 8191

// Run executes the simulation to trace exhaustion (or cfg.MaxInsts) and
// returns the measurement results.
func (c *CPU) Run() (Result, error) { return c.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: the loop polls ctx
// periodically and returns ctx.Err() (wrapped) as soon as it is done. The
// partial measurement up to the abort cycle is returned alongside the
// error, with every pool flushed so the profiles cover the simulated
// horizon exactly — open idle runs are closed, never dropped.
//
// The loop steps commit, complete, issue, dispatch and fetch once per
// cycle, except across quiescent cycles — cycles in which no stage can
// change any state (see quiet). It jumps those in one move to the next
// cycle that can (see skipQuiet), so memory-bound stretches cost one
// test instead of one pass of every stage per cycle. Every Result field
// is identical to stepping cycle by cycle: the jump never crosses a
// completion, the end of a fetch stall, a context poll or the deadlock
// watchdog, and it settles the per-cycle stall counter in one add. The
// stepping loop survives as the test oracle in skip_oracle_test.go.
func (c *CPU) RunContext(ctx context.Context) (Result, error) {
	defer c.stream.Close()
	for !c.finished() {
		if c.quiet() {
			c.skipQuiet()
		} else {
			c.commit()
			if c.stopRequested {
				break
			}
			c.complete()
			c.issue()
			c.dispatch()
			c.fetch()
			c.cycle++
		}
		if c.cycle&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				c.flushPools()
				return c.result(), fmt.Errorf("pipeline: run aborted at cycle %d (committed %d): %w",
					c.cycle, c.committed, err)
			}
		}
		if c.cycle-c.lastProgress > deadlockWindow {
			c.flushPools()
			return c.result(), fmt.Errorf("%w at cycle %d (committed %d)", ErrDeadlock, c.cycle, c.committed)
		}
	}
	c.flushPools()
	return c.result(), nil
}

// quiet reports whether the current cycle is quiescent: commit, complete,
// issue, dispatch and fetch would all leave every piece of state as it is,
// apart from fetch's stall counter. That holds when
//   - the ROB is empty or its head has not completed (commit retires
//     nothing),
//   - the event wheel holds no completion for this cycle (complete wakes
//     nothing),
//   - the ready list is empty (issue selects nothing),
//   - the fetch queue is empty or its head is held by a structural limit
//     (dispatch renames nothing), and
//   - fetch is stalled: a mispredict awaits resolution, an I-cache miss
//     is still being served, the fetch queue is full, or the stream is
//     exhausted.
//
// Only commit and issue free the structures dispatch waits on, and only a
// completion ends a mispredict stall or readies an instruction, so a
// quiescent cycle stays quiescent until the next completion or the end of
// the I-cache stall.
//
//fusleepvet:hotpath
func (c *CPU) quiet() bool {
	if len(c.readyQ) > 0 || len(c.wheel[c.cycle&c.wheelMask]) > 0 {
		return false
	}
	if c.rob.count > 0 && c.rob.at(0).state == stDone {
		return false
	}
	if c.fetchQ.count > 0 && !c.dispatchBlocked(&c.fetchQ.front().inst) {
		return false
	}
	return c.redirectPending || c.cycle < c.fetchBlockedTill || c.fetchQ.full() ||
		(c.eof && c.bufPos >= len(c.buf))
}

// skipQuiet advances c.cycle from a quiescent cycle to the earliest cycle
// that may not be: the next occupied wheel slot, or the end of an I-cache
// stall that is not waiting on a mispredict. The jump also stops at the
// next context poll and at the cycle the deadlock watchdog fires, so a
// run is cancelled or declared deadlocked at exactly the cycle the
// stepping loop would pick. Fetch's stall counter is charged for the
// whole span in one add when fetch was stalled on a mispredict or a miss;
// a full fetch queue or an exhausted stream is not a stall.
//
//fusleepvet:hotpath
func (c *CPU) skipQuiet() {
	t := c.cycle
	end := (t | ctxCheckMask) + 1
	if wd := c.lastProgress + deadlockWindow + 1; wd < end {
		end = wd
	}
	stalled := c.redirectPending || t < c.fetchBlockedTill
	if !c.redirectPending && t < c.fetchBlockedTill && c.fetchBlockedTill < end {
		end = c.fetchBlockedTill
	}
	// Every pending completion lies within one wheel revolution, so a scan
	// of one revolution finds the next one or proves there is none.
	for s, last := t+1, t+c.wheelMask; s < end && s <= last; s++ {
		if len(c.wheel[s&c.wheelMask]) > 0 {
			end = s
			break
		}
	}
	if stalled {
		c.mispredStalls += end - t
	}
	c.quietCycles += end - t
	c.cycle = end
}

// flushPools settles every class pool's open busy/idle run against the
// simulated horizon [0, c.cycle). Runs once per simulation, on every exit
// path — clean completion, MaxInsts stop, cancellation, deadlock — so the
// recorded interval mass always matches the cycles actually simulated.
func (c *CPU) flushPools() {
	for _, p := range c.pools {
		p.flush(c.cycle)
	}
}

func (c *CPU) finished() bool {
	return c.eof && c.bufPos >= len(c.buf) && c.fetchQ.count == 0 && c.rob.count == 0
}

func (c *CPU) result() Result {
	res := Result{
		Cycles:                c.cycle,
		Committed:             c.committed,
		Fetched:               c.fetched,
		Bpred:                 c.pred.Stats(),
		L1I:                   c.mem.L1I.Stats(),
		L1D:                   c.mem.L1D.Stats(),
		L2:                    c.mem.L2.Stats(),
		ITLB:                  c.itlb.Stats(),
		DTLB:                  c.dtlb.Stats(),
		LoadForwards:          c.loadForwards,
		FetchMispredictStalls: c.mispredStalls,
		QuietCycles:           c.quietCycles,
		ClassCounts:           c.classCounts,
	}
	// FUs and the IntALU class entry are the same view; share one snapshot
	// (consumers treat profiles as read-only) instead of copying the
	// interval maps twice.
	aluProfiles := c.alu.profiles()
	res.FUs = aluProfiles
	res.Classes = append(res.Classes, ClassProfile{Class: fu.IntALU, Units: aluProfiles})
	if c.agu != c.alu {
		res.Classes = append(res.Classes, ClassProfile{Class: fu.AGU, Units: c.agu.profiles()})
	}
	res.Classes = append(res.Classes,
		ClassProfile{Class: fu.Mult, Units: c.mult.profiles()},
		ClassProfile{Class: fu.FPALU, Units: c.fpalu.profiles()},
		ClassProfile{Class: fu.FPMult, Units: c.fpmult.profiles()},
	)
	return res
}

// peek returns the next instruction of the stream without consuming it.
// The pointer aliases the stream buffer and is valid until consume; fetch
// copies the instruction exactly once, into the fetch queue slot.
//
//fusleepvet:hotpath
func (c *CPU) peek() (*isa.Inst, bool) {
	if c.bufPos < len(c.buf) {
		return &c.buf[c.bufPos], true
	}
	return c.refill()
}

// refill replenishes the stream window: a whole batch at a time when the
// source implements batchStream (handing the drained batch back for
// recycling), one instruction otherwise.
func (c *CPU) refill() (*isa.Inst, bool) {
	if c.eof {
		return nil, false
	}
	if c.batched != nil {
		batch, ok := c.batched.NextBatch(c.buf)
		c.buf, c.bufPos = batch, 0
		if !ok {
			c.eof = true
			return nil, false
		}
		return &c.buf[0], true
	}
	in, ok := c.stream.Next()
	if !ok {
		c.eof = true
		return nil, false
	}
	c.one[0] = in
	c.buf, c.bufPos = c.one[:], 0
	return &c.buf[0], true
}

//fusleepvet:hotpath
func (c *CPU) consume() { c.bufPos++ }

// ---- fetch ----

//fusleepvet:hotpath
func (c *CPU) fetch() {
	if c.redirectPending {
		c.mispredStalls++
		return
	}
	if c.cycle < c.fetchBlockedTill {
		c.mispredStalls++
		return
	}
	slots := c.cfg.FetchWidth
	for slots > 0 && !c.fetchQ.full() {
		in, ok := c.peek()
		if !ok {
			return
		}
		line := in.PC >> c.fetchLineShift
		if !c.haveFetchLine || line != c.lastFetchLine {
			lat := c.mem.L1I.Access(in.PC, false) + c.itlb.Access(in.PC)
			c.lastFetchLine = line
			c.haveFetchLine = true
			if extra := lat - c.cfg.Mem.L1I.Latency; extra > 0 {
				// Miss: stall fetch; the line is filled, so the retry
				// proceeds without re-access.
				c.fetchBlockedTill = c.cycle + uint64(extra)
				return
			}
		}
		c.fetched++
		fe := c.fetchQ.pushSlot()
		fe.inst = *in
		fe.mispredict = false
		c.consume()
		if in.Class.IsCtrl() {
			r := c.pred.PredictRef(&fe.inst)
			c.pred.UpdateRef(&fe.inst, r)
			if bpred.MispredictedRef(&fe.inst, r) {
				fe.mispredict = true
				c.redirectPending = true
				return
			}
			slots--
			if r.PredTaken {
				// Correctly predicted taken control flow ends the fetch
				// group; the redirected group starts next cycle.
				return
			}
			continue
		}
		slots--
	}
}

// ---- dispatch (decode + rename) ----

//fusleepvet:hotpath
func (c *CPU) ref(r isa.Reg) physRef {
	if r == isa.RegNone {
		return noReg
	}
	if r.IsFP() {
		return physRef{idx: c.fpRen.lookup(int(r) - isa.NumIntRegs), fp: true}
	}
	return physRef{idx: c.intRen.lookup(int(r))}
}

//fusleepvet:hotpath
func (c *CPU) renamerFor(r isa.Reg) (*renamer, int) {
	if r.IsFP() {
		return c.fpRen, int(r) - isa.NumIntRegs
	}
	return c.intRen, int(r)
}

// dispatchBlocked reports whether a structural limit holds in at the head
// of the fetch queue: the ROB is full, the instruction's load, store or
// issue queue is full, or its destination has no free physical register.
// dispatch stops at such an instruction, and quiet treats it as leaving
// dispatch idle, so the two read the one rule.
//
//fusleepvet:hotpath
func (c *CPU) dispatchBlocked(in *isa.Inst) bool {
	if c.rob.full() {
		return true
	}
	switch {
	case in.Class == isa.Load:
		if c.lqCount >= c.cfg.LoadQSize {
			return true
		}
	case in.Class == isa.Store:
		if c.storeQ.count >= c.cfg.StoreQSize {
			return true
		}
	case in.Class.IsFP():
		if c.fpIQCount >= c.cfg.FPIQSize {
			return true
		}
	case in.Class != isa.Nop:
		if c.intIQCount >= c.cfg.IntIQSize {
			return true
		}
	}
	if in.Dest == isa.RegNone {
		return false
	}
	ren, _ := c.renamerFor(in.Dest)
	return !ren.canAllocate()
}

//fusleepvet:hotpath
func (c *CPU) dispatch() {
	for n := 0; n < c.cfg.DecodeWidth && c.fetchQ.count > 0; n++ {
		fe := c.fetchQ.front()
		in := &fe.inst
		if c.dispatchBlocked(in) {
			return
		}
		// Fill the tail ROB slot in place. Sources are looked up before
		// the destination is renamed, so an instruction that reads its own
		// destination register sees the previous mapping.
		idx, e := c.rob.alloc()
		e.seq = in.Seq
		e.addr = in.Addr
		e.class = in.Class
		e.state = stWaiting
		e.src1 = c.ref(in.Src1)
		e.src2 = c.ref(in.Src2)
		e.dest = noReg
		e.oldPhys = -1
		e.sq = -1
		e.mispredict = fe.mispredict
		if in.Dest != isa.RegNone {
			ren, arch := c.renamerFor(in.Dest)
			newPhys, oldPhys, _ := ren.allocate(arch)
			e.dest = physRef{idx: newPhys, fp: in.Dest.IsFP()}
			e.oldPhys = oldPhys
		}
		c.rob.count++
		switch {
		case in.Class == isa.Nop:
			e.state = stExecuting
			c.schedule(idx, 1)
		case in.Class == isa.Load:
			c.lqCount++
			c.enqueue(idx, e)
		case in.Class == isa.Store:
			e.sq = int32(c.storeQ.push(storeQEntry{seq: in.Seq, addr: in.Addr}))
			c.enqueue(idx, e)
		case in.Class.IsFP():
			c.fpIQCount++
			c.enqueue(idx, e)
		default:
			c.intIQCount++
			c.enqueue(idx, e)
		}
		c.fetchQ.popFront()
	}
}

// enqueue places a freshly dispatched instruction in the issue window:
// straight onto the ready list when its operands are available, otherwise
// asleep on the producing physical registers until wakeup marks them ready.
// Dispatch runs in program order, so appending keeps readyQ seq-sorted.
//
//fusleepvet:hotpath
func (c *CPU) enqueue(idx int, e *robEntry) {
	var pending uint8
	if e.src1.idx >= 0 && !c.ready(e.src1) {
		c.addDep(e.src1, int32(idx))
		pending++
	}
	if e.src2.idx >= 0 && !c.ready(e.src2) {
		c.addDep(e.src2, int32(idx))
		pending++
	}
	if pending == 0 {
		c.readyQ = append(c.readyQ, int32(idx))
		return
	}
	c.pendingSrcs[idx] = pending
}

//fusleepvet:hotpath
func (c *CPU) addDep(r physRef, idx int32) {
	if r.fp {
		c.fpDeps[r.idx] = append(c.fpDeps[r.idx], idx)
		return
	}
	c.intDeps[r.idx] = append(c.intDeps[r.idx], idx)
}

// ---- issue + execute ----

//fusleepvet:hotpath
func (c *CPU) ready(r physRef) bool {
	if r.idx < 0 {
		return true
	}
	if r.fp {
		return c.fpRen.isReady(r.idx)
	}
	return c.intRen.isReady(r.idx)
}

// schedule books the instruction's completion lat cycles from now on the
// event wheel.
//
//fusleepvet:hotpath
func (c *CPU) schedule(robIdx int, lat int) {
	if uint64(lat) > c.wheelMask {
		panic(fmt.Sprintf("pipeline: completion latency %d exceeds event wheel span %d", lat, c.wheelMask+1))
	}
	slot := (c.cycle + uint64(lat)) & c.wheelMask
	c.wheel[slot] = append(c.wheel[slot], int32(robIdx))
}

// issue selects instructions from the ready list in program order, oldest
// first, exactly as the previous full-ROB scan did: an instruction blocked
// on a functional unit or memory port is skipped without consuming issue
// bandwidth, and retried next cycle. Per-pool "exhausted" flags shortcut
// repeat allocation attempts within the cycle — once a pool rejects an
// allocation at this cycle it stays full until tick advances, since issue
// only ever makes units busier.
//
//fusleepvet:hotpath
func (c *CPU) issue() {
	q := c.readyQ
	if len(q) == 0 {
		return
	}
	budget := c.cfg.IssueWidth
	ports := c.cfg.MemPorts
	// When address generation shares the integer ALU ports, the two
	// classes share one pool and therefore one fullness flag: exhausting
	// the pool through either class blocks both, exactly as the single
	// intFull flag did before the pools split.
	sharedAGU := c.agu == c.alu
	var aluFull, aguFull, multFull, fpaluFull, fpmultFull bool
	w := 0
	for i := 0; i < len(q); i++ {
		if budget == 0 {
			w += copy(q[w:], q[i:])
			break
		}
		idx := q[i]
		e := &c.rob.entries[idx]
		issued := false
		switch e.class {
		case isa.IntALU, isa.Branch, isa.Jump, isa.Call, isa.Return:
			if !aluFull {
				if _, ok := c.alu.tryAllocate(c.cycle, LatIntALU); ok {
					c.schedule(int(idx), LatIntALU)
					c.intIQCount--
					issued = true
				} else {
					aluFull = true
					if sharedAGU {
						aguFull = true
					}
				}
			}
		case isa.IntMult:
			if !multFull {
				if _, ok := c.mult.tryAllocate(c.cycle, LatIntMult); ok {
					c.schedule(int(idx), LatIntMult)
					c.intIQCount--
					issued = true
				} else {
					multFull = true
				}
			}
		case isa.IntDiv:
			if !multFull {
				if _, ok := c.mult.tryAllocate(c.cycle, LatIntDiv); ok {
					c.schedule(int(idx), LatIntDiv)
					c.intIQCount--
					issued = true
				} else {
					multFull = true
				}
			}
		case isa.Load:
			// Address generation occupies an AGU-class unit for one cycle
			// (by default the integer pipes, 21264-style), and the access
			// needs a cache port.
			if ports > 0 && !aguFull {
				if _, ok := c.agu.tryAllocate(c.cycle, LatAGU); ok {
					ports--
					c.schedule(int(idx), c.loadLatency(e.seq, e.addr))
					issued = true
				} else {
					aguFull = true
					if sharedAGU {
						aluFull = true
					}
				}
			}
		case isa.Store:
			if ports > 0 && !aguFull {
				if _, ok := c.agu.tryAllocate(c.cycle, LatAGU); ok {
					ports--
					pen := c.dtlb.Access(e.addr)
					c.storeAddrKnown(e)
					c.schedule(int(idx), LatAGU+pen)
					issued = true
				} else {
					aguFull = true
					if sharedAGU {
						aluFull = true
					}
				}
			}
		case isa.FPALU:
			if !fpaluFull {
				if _, ok := c.fpalu.tryAllocate(c.cycle, LatFPALU); ok {
					c.schedule(int(idx), LatFPALU)
					c.fpIQCount--
					issued = true
				} else {
					fpaluFull = true
				}
			}
		case isa.FPMult:
			if !fpmultFull {
				if _, ok := c.fpmult.tryAllocate(c.cycle, LatFPMult); ok {
					c.schedule(int(idx), LatFPMult)
					c.fpIQCount--
					issued = true
				} else {
					fpmultFull = true
				}
			}
		case isa.FPDiv:
			if !fpmultFull {
				if _, ok := c.fpmult.tryAllocate(c.cycle, LatFPDiv); ok {
					c.schedule(int(idx), LatFPDiv)
					c.fpIQCount--
					issued = true
				} else {
					fpmultFull = true
				}
			}
		}
		if issued {
			e.state = stExecuting
			budget--
		} else {
			q[w] = idx
			w++
		}
	}
	c.readyQ = q[:w]
}

// loadLatency models address generation followed by either store-queue
// forwarding (when an older store to the same word has resolved its
// address) or a TLB-translated data cache access.
//
//fusleepvet:hotpath
func (c *CPU) loadLatency(seq, addr uint64) int {
	if c.forwardingStore(seq, addr) {
		c.loadForwards++
		return LatAGU + LatForward
	}
	pen := c.dtlb.Access(addr)
	return LatAGU + pen + c.mem.L1D.Access(addr, false)
}

// forwardingStore reports whether an older address-known store to the same
// word is in flight, via the word-address index (one map probe; the
// smallest indexed seq per word decides, since the lists are ascending).
//
//fusleepvet:hotpath
func (c *CPU) forwardingStore(loadSeq, addr uint64) bool {
	return c.storeIdx.olderThan(addr>>c.wordAddrShift, loadSeq)
}

// storeAddrKnown resolves a store's address at issue: the robEntry carries
// its store-queue slot, so no scan is needed to flip the flag or index the
// word.
//
//fusleepvet:hotpath
func (c *CPU) storeAddrKnown(e *robEntry) {
	s := &c.storeQ.entries[e.sq]
	s.addrKnown = true
	c.storeIdx.add(s.addr>>c.wordAddrShift, s.seq)
}

// ---- completion ----

// complete drains the event wheel slot for the current cycle: finished
// instructions mark their destination ready and wake the instructions
// sleeping on it onto the ready list (in seq order).
//
//fusleepvet:hotpath
func (c *CPU) complete() {
	slot := c.cycle & c.wheelMask
	list := c.wheel[slot]
	if len(list) == 0 {
		return
	}
	for _, idx := range list {
		e := &c.rob.entries[idx]
		e.state = stDone
		if e.dest.idx >= 0 {
			c.wakeup(e.dest)
		}
		if e.mispredict {
			// The mispredicted control instruction has resolved: redirect
			// fetch after the recovery penalty.
			c.fetchBlockedTill = c.cycle + uint64(c.cfg.MispredictPenalty)
			c.redirectPending = false
			c.haveFetchLine = false
		}
	}
	c.wheel[slot] = list[:0]
}

// wakeup marks the physical register ready and moves its now-unblocked
// consumers to the ready list. Dependent lists are drained in place and
// keep their capacity.
//
//fusleepvet:hotpath
func (c *CPU) wakeup(dest physRef) {
	var deps []int32
	if dest.fp {
		c.fpRen.markReady(dest.idx)
		deps = c.fpDeps[dest.idx]
	} else {
		c.intRen.markReady(dest.idx)
		deps = c.intDeps[dest.idx]
	}
	if len(deps) == 0 {
		return
	}
	for _, d := range deps {
		c.pendingSrcs[d]--
		if c.pendingSrcs[d] == 0 {
			c.insertReady(d)
		}
	}
	if dest.fp {
		c.fpDeps[dest.idx] = deps[:0]
	} else {
		c.intDeps[dest.idx] = deps[:0]
	}
}

// insertReady places a woken instruction into readyQ preserving ascending
// seq order, so issue keeps the oldest-first priority of the original
// full-ROB scan. Wakeups within a cycle arrive in completion order, hence
// the sorted insert (the ready list is short — bounded by the issue
// queues, not the ROB).
//
//fusleepvet:hotpath
func (c *CPU) insertReady(idx int32) {
	q := c.readyQ
	seq := c.rob.entries[idx].seq
	lo, hi := 0, len(q)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.rob.entries[q[mid]].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q = append(q, 0)
	copy(q[lo+1:], q[lo:])
	q[lo] = idx
	c.readyQ = q
}

// ---- commit ----

//fusleepvet:hotpath
func (c *CPU) commit() {
	for n := 0; n < c.cfg.CommitWidth && c.rob.count > 0; n++ {
		e := c.rob.at(0)
		if e.state != stDone {
			return
		}
		switch e.class {
		case isa.Store:
			c.mem.L1D.Access(e.addr, true)
			if c.storeQ.count == 0 || c.storeQ.front().seq != e.seq {
				panic("pipeline: store queue out of sync with ROB")
			}
			if s := c.storeQ.front(); s.addrKnown {
				c.storeIdx.remove(s.addr>>c.wordAddrShift, s.seq)
			}
			c.storeQ.popFront()
		case isa.Load:
			c.lqCount--
		}
		if e.oldPhys >= 0 {
			if e.dest.fp {
				c.fpRen.release(e.oldPhys)
			} else {
				c.intRen.release(e.oldPhys)
			}
		}
		if int(e.class) < len(c.classCounts) {
			c.classCounts[e.class]++
		}
		c.rob.popFront()
		c.committed++
		c.lastProgress = c.cycle
		if c.cfg.MaxInsts > 0 && c.committed >= c.cfg.MaxInsts {
			c.stopRequested = true
			return
		}
	}
}
