// Package fault provides deterministic, injectable fault points for the
// daemon's chaos and recovery tests. A fault point is a named site in
// production code (a cell evaluation, a journal fsync) that consults a
// shared Injector before proceeding; the injector decides — purely from
// its seed and per-point hit counters, never from wall clocks or shared
// entropy — whether the site should misbehave on this hit.
//
// Production builds pass a nil *Injector everywhere, which compiles to a
// single nil check per point. Tests construct an Injector with a fixed
// seed and arm the points they exercise, so a failing chaos run replays
// byte-for-byte from its seed.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"
)

// Canonical fault-point names. Production sites and tests share these
// constants so an armed point can never silently miss its site.
const (
	// CellPanic makes a cell evaluation panic inside the worker.
	CellPanic = "cell.panic"
	// CellTransient makes a cell evaluation fail with a transient error
	// that retry/backoff is expected to absorb.
	CellTransient = "cell.transient"
	// CellSlow stalls a cell evaluation by the point's configured delay,
	// long enough to trip a per-cell deadline.
	CellSlow = "cell.slow"
	// JournalFsync makes a journal fsync fail, wedging the journal the way
	// a dying disk would.
	JournalFsync = "journal.fsync"
	// JournalTorn makes a journal append write only a partial frame and
	// then wedge, simulating a crash mid-write (the torn tail recovery
	// must truncate away).
	JournalTorn = "journal.torn"
)

// ErrInjected is the sentinel wrapped by every error an injector
// manufactures, so tests can tell injected failures from real ones.
var ErrInjected = errors.New("fault: injected failure")

// ErrTransient marks an injected failure as transient: retry with backoff
// is expected to succeed. It wraps ErrInjected.
var ErrTransient = fmt.Errorf("%w (transient)", ErrInjected)

// Spec arms one fault point. The zero Spec never fires. Firing is decided
// per hit n (1-based, per point) as: n > After, and (n-After) is a
// multiple of Every (Every <= 1 means every hit), and the point has fired
// fewer than Times times (Times 0 = unlimited), and — when Prob is in
// (0,1) — a deterministic hash of (seed, point, n) lands under Prob. A
// site that consults the point through FireKey counts hits and firings
// per key instead, and hashes the key in too.
type Spec struct {
	// Every fires on every k-th eligible hit (0 or 1 = every hit).
	Every int
	// After skips the first n hits entirely.
	After int
	// Times bounds total firings (0 = unlimited).
	Times int
	// Prob thins eligible firings with a seeded hash; 0 means always
	// (probability 1), values in (0,1) fire that fraction of eligible hits.
	Prob float64
	// Delay is returned by DelayFor when the point fires; points that
	// do not stall ignore it.
	Delay time.Duration
}

// counter is one hit and firing tally.
type counter struct {
	hits  uint64
	fired uint64
}

// point is one armed fault point's spec and counters: the totals over
// every hit, and the per-key tallies that decide FireKey hits.
type point struct {
	spec Spec
	counter
	keys map[string]*counter
}

// Injector decides, deterministically from its seed and per-point
// counters, whether armed fault points fire. A nil *Injector is valid and
// never fires; all methods are safe for concurrent use.
type Injector struct {
	seed uint64

	mu     sync.Mutex
	points map[string]*point
}

// New returns an injector whose probabilistic decisions derive from seed.
func New(seed int64) *Injector {
	return &Injector{seed: uint64(seed), points: make(map[string]*point)}
}

// Set arms (or re-arms) a fault point; its hit and fire counters reset.
func (i *Injector) Set(name string, s Spec) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.points[name] = &point{spec: s}
}

// Fire records one hit on the named point and reports whether the site
// should misbehave now. Unarmed points (and nil injectors) never fire.
func (i *Injector) Fire(name string) bool { return i.fire(name, "", false) }

// FireKey is Fire for a site that acts on one keyed unit of work, such as
// a cell: the point's Spec is applied to this key's own hits, so whether
// a key's n-th hit fires does not depend on how concurrent workers
// interleave hits on other keys. Hits and Fired still total every key.
func (i *Injector) FireKey(name, key string) bool { return i.fire(name, key, true) }

func (i *Injector) fire(name, key string, keyed bool) bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	p, ok := i.points[name]
	if !ok {
		return false
	}
	p.hits++
	c, coinName := &p.counter, name
	if keyed {
		if p.keys == nil {
			p.keys = make(map[string]*counter)
		}
		if c = p.keys[key]; c == nil {
			c = &counter{}
			p.keys[key] = c
		}
		c.hits++
		coinName = name + "\x00" + key
	}
	n := c.hits
	s := p.spec
	if n <= uint64(s.After) {
		return false
	}
	if s.Times > 0 && c.fired >= uint64(s.Times) {
		return false
	}
	if s.Every > 1 && (n-uint64(s.After))%uint64(s.Every) != 0 {
		return false
	}
	if s.Prob > 0 && s.Prob < 1 && !i.coin(coinName, n, s.Prob) {
		return false
	}
	c.fired++
	if keyed {
		p.fired++
	}
	return true
}

// DelayFor is Fire for stall points: when the point fires it returns the
// armed delay, otherwise zero.
func (i *Injector) DelayFor(name string) time.Duration {
	if i == nil {
		return 0
	}
	if !i.Fire(name) {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.points[name].spec.Delay
}

// Hits returns how many times the named point was consulted.
func (i *Injector) Hits(name string) uint64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if p, ok := i.points[name]; ok {
		return p.hits
	}
	return 0
}

// Fired returns how many times the named point actually fired.
func (i *Injector) Fired(name string) uint64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if p, ok := i.points[name]; ok {
		return p.fired
	}
	return 0
}

// String summarizes the armed points in name order, for test logs.
func (i *Injector) String() string {
	if i == nil {
		return "fault.Injector(nil)"
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	names := make([]string, 0, len(i.points))
	for name := range i.points {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "fault.Injector(seed=%d", i.seed)
	for _, name := range names {
		p := i.points[name]
		fmt.Fprintf(&b, " %s:%d/%d", name, p.fired, p.hits)
	}
	b.WriteString(")")
	return b.String()
}

// coin is the deterministic biased coin for Prob thinning: a splitmix64
// finalizer over (seed, point name or name+key, hit index) mapped onto
// [0, 1).
func (i *Injector) coin(name string, n uint64, prob float64) bool {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	x := i.seed ^ h.Sum64() ^ (n * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/float64(1<<53) < prob
}
