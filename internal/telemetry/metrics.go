package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets is the default latency histogram layout, in seconds: 100µs to
// 10s in a 1-2.5-5 progression. It covers everything the daemon times —
// sub-millisecond store appends through multi-second cell evaluations.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// FineBuckets extends DefBuckets down to 1µs for the latencies that are
// routinely shorter than DefBuckets' first 100µs bound — warm closed-form
// cell evaluations, queue waits on an idle worker, batched journal
// appends — so their percentiles are read from real buckets instead of
// being interpolated inside the first one.
var FineBuckets = append([]float64{
	0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
}, DefBuckets...)

// Sample is one collector-produced sample: label values (matching the
// collector's label names, in order) and the current value.
type Sample struct {
	Labels []string
	Value  float64
}

// family is one registered metric name: its metadata plus the emitter
// that renders its samples.
type family struct {
	name string
	help string
	typ  string // "counter", "gauge", or "histogram"
	emit func(f *family, buf *bytes.Buffer)
}

// Registry holds registered metrics and renders them in deterministic
// order: families sorted by name (maintained at registration, so scrapes
// do not sort), labeled children sorted by label values.
type Registry struct {
	mu       sync.Mutex
	families []*family // sorted by name
	names    map[string]bool
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// register validates and inserts one family in name order. Registration
// is programmer-driven (names are compile-time constants, checked by the
// fusleepvet metricnames analyzer), so violations panic.
func (r *Registry) register(f *family) {
	if err := checkMetricName(f.name); err != nil {
		panic("telemetry: " + err.Error())
	}
	if strings.ContainsAny(f.help, "\n") {
		panic("telemetry: help for " + f.name + " contains a newline")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[f.name] {
		panic("telemetry: duplicate metric " + f.name)
	}
	r.names[f.name] = true
	at := sort.Search(len(r.families), func(i int) bool { return r.families[i].name >= f.name })
	r.families = append(r.families, nil)
	copy(r.families[at+1:], r.families[at:])
	r.families[at] = f
}

// WriteText renders every registered family into buf in the Prometheus
// text exposition format (version 0.0.4), deterministically ordered.
// Callers reuse buf across scrapes to keep the path allocation-free.
func (r *Registry) WriteText(buf *bytes.Buffer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		buf.WriteString("# HELP ")
		buf.WriteString(f.name)
		buf.WriteByte(' ')
		buf.WriteString(f.help)
		buf.WriteString("\n# TYPE ")
		buf.WriteString(f.name)
		buf.WriteByte(' ')
		buf.WriteString(f.typ)
		buf.WriteByte('\n')
		f.emit(f, buf)
	}
}

// checkMetricName enforces the exposition format's metric-name charset.
func checkMetricName(name string) error {
	if name == "" {
		return fmt.Errorf("empty metric name")
	}
	for i, c := range name {
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' {
			continue
		}
		if i > 0 && c >= '0' && c <= '9' {
			continue
		}
		return fmt.Errorf("bad metric name %q", name)
	}
	return nil
}

// checkLabelName enforces the exposition format's label-name charset.
func checkLabelName(name string) error {
	if name == "" {
		return fmt.Errorf("empty label name")
	}
	for i, c := range name {
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' {
			continue
		}
		if i > 0 && c >= '0' && c <= '9' {
			continue
		}
		return fmt.Errorf("bad label name %q", name)
	}
	return nil
}

// writeEscaped writes a label value with the format's escapes
// (backslash, double quote, newline).
func writeEscaped(buf *bytes.Buffer, s string) {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			buf.WriteString(`\\`)
		case '"':
			buf.WriteString(`\"`)
		case '\n':
			buf.WriteString(`\n`)
		default:
			buf.WriteByte(s[i])
		}
	}
}

// writeLabels writes a {name="value",...} block; names and values run in
// parallel and extra, when non-empty, appends one more pair (histograms
// use it for le).
func writeLabels(buf *bytes.Buffer, names, values []string, extraName, extraValue string) {
	if len(names) == 0 && extraName == "" {
		return
	}
	buf.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(n)
		buf.WriteString(`="`)
		if i < len(values) {
			writeEscaped(buf, values[i])
		}
		buf.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(extraName)
		buf.WriteString(`="`)
		writeEscaped(buf, extraValue)
		buf.WriteByte('"')
	}
	buf.WriteByte('}')
}

// writeFloat appends a float sample value without allocating.
func writeFloat(buf *bytes.Buffer, v float64) {
	switch {
	case math.IsInf(v, 1):
		buf.WriteString("+Inf")
	case math.IsInf(v, -1):
		buf.WriteString("-Inf")
	default:
		buf.Write(strconv.AppendFloat(buf.AvailableBuffer(), v, 'g', -1, 64))
	}
}

// writeUint appends an unsigned sample value without allocating.
func writeUint(buf *bytes.Buffer, v uint64) {
	buf.Write(strconv.AppendUint(buf.AvailableBuffer(), v, 10))
}

// atomicFloat is a lock-free float64 accumulator (CAS over the bits).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing counter with a lock-free hot path.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// NewCounter registers a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, typ: "counter", emit: func(f *family, buf *bytes.Buffer) {
		buf.WriteString(f.name)
		buf.WriteByte(' ')
		writeUint(buf, c.Load())
		buf.WriteByte('\n')
	}})
	return c
}

// NewCounterFunc registers a counter whose value is read at scrape time —
// for monotone counts owned elsewhere (engine statistics, fleet totals).
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "counter", emit: func(f *family, buf *bytes.Buffer) {
		buf.WriteString(f.name)
		buf.WriteByte(' ')
		writeFloat(buf, fn())
		buf.WriteByte('\n')
	}})
}

// NewGaugeFunc registers a gauge whose value is read at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "gauge", emit: func(f *family, buf *bytes.Buffer) {
		buf.WriteString(f.name)
		buf.WriteByte(' ')
		writeFloat(buf, fn())
		buf.WriteByte('\n')
	}})
}

// collector registers a scrape-time multi-sample family (typ counter or
// gauge): fn returns one sample per label tuple, rendered sorted so the
// exposition stays deterministic. Samples with the wrong label arity are
// dropped rather than emitting malformed lines.
func (r *Registry) collector(name, help, typ string, labels []string, fn func() []Sample) {
	for _, l := range labels {
		if err := checkLabelName(l); err != nil {
			panic("telemetry: " + name + ": " + err.Error())
		}
	}
	r.register(&family{name: name, help: help, typ: typ, emit: func(f *family, buf *bytes.Buffer) {
		samples := fn()
		slices.SortFunc(samples, func(a, b Sample) int {
			return slices.Compare(a.Labels, b.Labels)
		})
		for _, s := range samples {
			if len(s.Labels) != len(labels) {
				continue
			}
			buf.WriteString(f.name)
			writeLabels(buf, labels, s.Labels, "", "")
			buf.WriteByte(' ')
			writeFloat(buf, s.Value)
			buf.WriteByte('\n')
		}
	}})
}

// NewGaugeCollector registers a labeled gauge family collected at scrape
// time (e.g. per-worker fleet depths).
func (r *Registry) NewGaugeCollector(name, help string, labels []string, fn func() []Sample) {
	r.collector(name, help, "gauge", labels, fn)
}

// NewCounterCollector registers a labeled counter family collected at
// scrape time (e.g. per-worker completion totals).
func (r *Registry) NewCounterCollector(name, help string, labels []string, fn func() []Sample) {
	r.collector(name, help, "counter", labels, fn)
}

// Histogram is a fixed-bucket latency distribution with a lock-free
// Observe: per-bucket atomic counts plus a CAS-accumulated sum.
type Histogram struct {
	bounds []float64 // sorted upper bounds, exclusive of +Inf
	les    []string  // bounds preformatted for the le label
	counts []atomic.Uint64
	sum    atomicFloat
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram buckets not strictly increasing")
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	for _, b := range h.bounds {
		h.les = append(h.les, strconv.FormatFloat(b, 'g', -1, 64))
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.sum.add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// emit renders the histogram's bucket/sum/count lines under the family
// name with the given (possibly empty) base labels.
func (h *Histogram) emit(name string, buf *bytes.Buffer, labelNames, labelValues []string) {
	var cum uint64
	for i, le := range h.les {
		cum += h.counts[i].Load()
		buf.WriteString(name)
		buf.WriteString("_bucket")
		writeLabels(buf, labelNames, labelValues, "le", le)
		buf.WriteByte(' ')
		writeUint(buf, cum)
		buf.WriteByte('\n')
	}
	cum += h.counts[len(h.counts)-1].Load()
	buf.WriteString(name)
	buf.WriteString("_bucket")
	writeLabels(buf, labelNames, labelValues, "le", "+Inf")
	buf.WriteByte(' ')
	writeUint(buf, cum)
	buf.WriteByte('\n')
	buf.WriteString(name)
	buf.WriteString("_sum")
	writeLabels(buf, labelNames, labelValues, "", "")
	buf.WriteByte(' ')
	writeFloat(buf, h.sum.load())
	buf.WriteByte('\n')
	buf.WriteString(name)
	buf.WriteString("_count")
	writeLabels(buf, labelNames, labelValues, "", "")
	buf.WriteByte(' ')
	writeUint(buf, cum)
	buf.WriteByte('\n')
}

// NewHistogram registers an unlabeled histogram. Nil buckets select
// DefBuckets.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	r.register(&family{name: name, help: help, typ: "histogram", emit: func(f *family, buf *bytes.Buffer) {
		h.emit(f.name, buf, nil, nil)
	}})
	return h
}

// histChild is one labeled histogram series.
type histChild struct {
	key    string
	values []string
	h      *Histogram
}

// HistogramVec is a histogram family keyed by label values. With caches
// children, so steady-state observation is one RLock'd map hit plus the
// child's lock-free Observe.
type HistogramVec struct {
	labels   []string
	buckets  []float64
	mu       sync.RWMutex
	children map[string]*histChild
	order    []*histChild // sorted by key, maintained at insertion
}

// NewHistogramVec registers a labeled histogram family. Nil buckets
// select DefBuckets.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("telemetry: NewHistogramVec " + name + " needs at least one label")
	}
	for _, l := range labels {
		if err := checkLabelName(l); err != nil {
			panic("telemetry: " + name + ": " + err.Error())
		}
	}
	v := &HistogramVec{
		labels:   append([]string(nil), labels...),
		buckets:  buckets,
		children: make(map[string]*histChild),
	}
	r.register(&family{name: name, help: help, typ: "histogram", emit: func(f *family, buf *bytes.Buffer) {
		v.mu.RLock()
		defer v.mu.RUnlock()
		for _, c := range v.order {
			c.h.emit(f.name, buf, v.labels, c.values)
		}
	}})
	return v
}

// With returns the child histogram for the given label values, creating
// it on first use. The value count must match the registered label names.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("telemetry: histogram wants %d label values, got %d", len(v.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	v.mu.RLock()
	c, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return c.h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[key]; ok {
		return c.h
	}
	c = &histChild{key: key, values: append([]string(nil), values...), h: newHistogram(v.buckets)}
	v.children[key] = c
	at := sort.Search(len(v.order), func(i int) bool { return v.order[i].key >= key })
	v.order = append(v.order, nil)
	copy(v.order[at+1:], v.order[at:])
	v.order[at] = c
	return c.h
}
