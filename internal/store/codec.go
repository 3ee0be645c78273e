package store

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"unicode/utf8"

	"github.com/archsim/fusleep/internal/core"
	"github.com/archsim/fusleep/internal/experiments"
	"github.com/archsim/fusleep/internal/fu"
)

// The canonical cell-result encoding is the bytes encoding/json's Marshal
// writes for an experiments.CellResult, written and read here by hand: no
// reflection, one allocation per encode. That means struct-tag field
// order with omitempty, "benchmarks":null for a nil program list, floats
// in ES6 number form ('f', or 'e' below 1e-6 and from 1e21, exponent
// "e-07" cleaned to "e-7"), HTML-safe string escapes, Policy and fu.Class
// written by name, and the Assignment and ClassTechs maps in class-name
// order. testdata/cell_codec_golden.json pins the bytes and FuzzCellCodec
// holds both directions to encoding/json.

// encodeStack is the stack buffer an encode writes into before its one
// exact-size copy; a cell result of a few classes fits with room to spare.
const encodeStack = 1024

// definedPolicies are the policies the decoder accepts by name.
var definedPolicies = [...]core.Policy{
	core.AlwaysActive, core.MaxSleep, core.NoOverhead,
	core.GradualSleep, core.OracleMinimal, core.SleepTimeout,
}

// classesByName lists every class in name order, the order encoding/json
// writes map keys in.
var classesByName = func() []fu.Class {
	cs := fu.Classes()
	sort.Slice(cs, func(i, j int) bool { return cs[i].String() < cs[j].String() })
	return cs
}()

// EncodeCell returns a result's canonical encoding with Index 0: the
// bytes json.Marshal writes for it, pinned by the codec golden and
// FuzzCellCodec (see above). It is the one encoder of cell results; the
// journal stores its output, ServeCell returns it, and AppendIndexed
// splices it into stream lines. As encoding/json does, it fails on a NaN
// or infinite float and on a class or policy that names none.
func EncodeCell(res experiments.CellResult) ([]byte, error) {
	res.Index = 0
	var stack [encodeStack]byte
	b, err := appendCell(stack[:0], &res)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// appendCell appends the canonical encoding of r, Index included, to b.
func appendCell(b []byte, r *experiments.CellResult) ([]byte, error) {
	if err := encodable(r); err != nil {
		return b, err
	}
	b = strconv.AppendInt(append(b, `{"index":`...), int64(r.Index), 10)
	b = appendCellConfig(append(b, `,"cell":`...), &r.Cell)
	b = appendFloat(append(b, `,"relEnergy":`...), r.RelEnergy)
	b = appendFloat(append(b, `,"leakageFraction":`...), r.LeakageFraction)
	b = appendFloat(append(b, `,"meanCycles":`...), r.MeanCycles)
	if len(r.PerClass) > 0 {
		b = append(b, `,"perClass":[`...)
		for i := range r.PerClass {
			ce := &r.PerClass[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = appendName(append(b, `{"class":`...), ce.Class.String())
			b = appendPolicy(append(b, `,"policy":`...), ce.Policy)
			b = appendFloat(append(b, `,"relEnergy":`...), ce.RelEnergy)
			b = appendFloat(append(b, `,"leakageFraction":`...), ce.LeakageFraction)
			b = appendOmitInt(b, `,"units":`, ce.Units)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendCellConfig appends a cell's encoding.
func appendCellConfig(b []byte, c *experiments.Cell) []byte {
	b = appendPolicy(append(b, `{"policy":`...), c.Policy)
	b = appendTech(append(b, `,"tech":`...), c.Tech)
	b = strconv.AppendInt(append(b, `,"fus":`...), int64(c.FUs), 10)
	b = append(b, `,"benchmarks":`...)
	if c.Benchmarks == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, name := range c.Benchmarks {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, name)
		}
		b = append(b, ']')
	}
	b = appendFloat(append(b, `,"alpha":`...), c.Alpha)
	b = strconv.AppendInt(append(b, `,"l2Latency":`...), int64(c.L2Latency), 10)
	b = strconv.AppendUint(append(b, `,"window":`...), c.Window, 10)
	b = appendOmitInt(b, `,"agus":`, c.AGUs)
	b = appendOmitInt(b, `,"mults":`, c.Mults)
	b = appendOmitInt(b, `,"fpalus":`, c.FPALUs)
	b = appendOmitInt(b, `,"fpmults":`, c.FPMults)
	if len(c.Classes) > 0 {
		b = append(b, `,"classes":[`...)
		for i, cl := range c.Classes {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendName(b, cl.String())
		}
		b = append(b, ']')
	}
	if len(c.Assignment) > 0 {
		b = append(b, `,"assignment":{`...)
		n := 0
		for _, cl := range classesByName {
			if pc, ok := c.Assignment[cl]; ok {
				b = appendKey(b, n, cl)
				b = appendPolicy(b, pc)
				n++
			}
		}
		b = append(b, '}')
	}
	if len(c.ClassTechs) > 0 {
		b = append(b, `,"classTechs":{`...)
		n := 0
		for _, cl := range classesByName {
			if t, ok := c.ClassTechs[cl]; ok {
				b = appendKey(b, n, cl)
				b = appendTech(b, t)
				n++
			}
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendKey appends the n-th key of a class-keyed object.
func appendKey(b []byte, n int, cl fu.Class) []byte {
	if n > 0 {
		b = append(b, ',')
	}
	return append(appendName(b, cl.String()), ':')
}

// appendPolicy appends a policy configuration's encoding.
func appendPolicy(b []byte, pc core.PolicyConfig) []byte {
	b = appendName(append(b, `{"policy":`...), pc.Policy.String())
	b = appendOmitInt(b, `,"slices":`, pc.Slices)
	b = appendOmitInt(b, `,"timeout":`, pc.Timeout)
	return append(b, '}')
}

// appendTech appends a technology point's encoding.
func appendTech(b []byte, t core.Tech) []byte {
	b = appendFloat(append(b, `{"p":`...), t.P)
	b = appendFloat(append(b, `,"c":`...), t.C)
	b = appendFloat(append(b, `,"sleepOverhead":`...), t.SleepOverhead)
	b = appendFloat(append(b, `,"duty":`...), t.Duty)
	return append(b, '}')
}

// appendOmitInt appends field and n unless n is 0 (omitempty).
func appendOmitInt(b []byte, field string, n int) []byte {
	if n == 0 {
		return b
	}
	return strconv.AppendInt(append(b, field...), int64(n), 10)
}

// appendName appends a policy or class name, which needs no escaping.
func appendName(b []byte, name string) []byte {
	return append(append(append(b, '"'), name...), '"')
}

// appendFloat appends a finite float as encoding/json does: the shortest
// round-trip digits in 'f' form, or in 'e' form below 1e-6 and from 1e21
// with a two-digit negative exponent cut to one digit.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string with encoding/json's HTML-safe
// escaping: quote, backslash and control bytes escaped (\b \f \n \r \t
// by letter, the rest as \u00XX), '<', '>' and '&' as \u00XX, U+2028 and
// U+2029 as \u2028 and \u2029, and each byte of invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// encodable reports why r cannot be encoded, exactly when encoding/json
// fails on it: a NaN or infinite float, or a class or policy that names
// none, anywhere in a written field. An omitted empty field is never
// checked, as encoding/json never reaches it.
func encodable(r *experiments.CellResult) error {
	c := &r.Cell
	if err := policyOK(c.Policy); err != nil {
		return err
	}
	if err := techOK(c.Tech); err != nil {
		return err
	}
	if err := finite(r.RelEnergy, r.LeakageFraction, r.MeanCycles, c.Alpha); err != nil {
		return err
	}
	for _, cl := range c.Classes {
		if err := classOK(cl); err != nil {
			return err
		}
	}
	// The maps are walked in encoding order, so the error is the same
	// whatever their iteration order; a key left over names no class.
	valid := 0
	for _, cl := range classesByName {
		if pc, ok := c.Assignment[cl]; ok {
			if err := policyOK(pc); err != nil {
				return err
			}
			valid++
		}
	}
	if valid < len(c.Assignment) {
		return errors.New("store: cannot encode an assignment keyed by an invalid class")
	}
	valid = 0
	for _, cl := range classesByName {
		if t, ok := c.ClassTechs[cl]; ok {
			if err := techOK(t); err != nil {
				return err
			}
			valid++
		}
	}
	if valid < len(c.ClassTechs) {
		return errors.New("store: cannot encode class techs keyed by an invalid class")
	}
	for i := range r.PerClass {
		ce := &r.PerClass[i]
		if err := classOK(ce.Class); err != nil {
			return err
		}
		if err := policyOK(ce.Policy); err != nil {
			return err
		}
		if err := finite(ce.RelEnergy, ce.LeakageFraction); err != nil {
			return err
		}
	}
	return nil
}

func policyOK(pc core.PolicyConfig) error {
	if !pc.Policy.Valid() {
		return fmt.Errorf("store: cannot encode invalid policy %d", int(pc.Policy))
	}
	return nil
}

func classOK(cl fu.Class) error {
	if !cl.Valid() {
		return fmt.Errorf("store: cannot encode invalid class %d", uint8(cl))
	}
	return nil
}

func techOK(t core.Tech) error {
	return finite(t.P, t.C, t.SleepOverhead, t.Duty)
}

func finite(fs ...float64) error {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("store: cannot encode float %v", f)
		}
	}
	return nil
}

// DecodeCell decodes a result from its canonical encoding. It is strict:
// fields in encoding order with no whitespace, no unknown or repeated
// field, policy and class names spelled exactly, and map keys in ascending
// name order. Whatever it accepts decodes as encoding/json's Unmarshal
// would decode it, but bytes it accepts are canonical only if they
// re-encode to themselves (see canonical).
func DecodeCell(data []byte) (experiments.CellResult, error) {
	d := decoder{b: data}
	var r experiments.CellResult
	d.lit(`{"index":`)
	r.Index = d.int()
	d.lit(`,"cell":`)
	d.cell(&r.Cell)
	d.lit(`,"relEnergy":`)
	r.RelEnergy = d.float()
	d.lit(`,"leakageFraction":`)
	r.LeakageFraction = d.float()
	d.lit(`,"meanCycles":`)
	r.MeanCycles = d.float()
	if d.opt(`,"perClass":[`) {
		var stack [8]experiments.ClassEnergy
		list := stack[:0]
		for d.elem(len(list), ']') {
			var ce experiments.ClassEnergy
			d.lit(`{"class":`)
			ce.Class = d.class()
			d.lit(`,"policy":`)
			ce.Policy = d.policy()
			d.lit(`,"relEnergy":`)
			ce.RelEnergy = d.float()
			d.lit(`,"leakageFraction":`)
			ce.LeakageFraction = d.float()
			if d.opt(`,"units":`) {
				ce.Units = d.int()
			}
			d.lit(`}`)
			list = append(list, ce)
		}
		r.PerClass = append([]experiments.ClassEnergy{}, list...)
	}
	d.lit(`}`)
	if d.err == nil && d.i != len(d.b) {
		d.fail("trailing data")
	}
	if d.err != nil {
		return experiments.CellResult{}, d.err
	}
	return r, nil
}

// decoder is a cursor over one canonical encoding. The first failure
// sticks: later reads return zero values and consume nothing.
type decoder struct {
	b       []byte
	i       int
	err     error
	scratch []byte // unescaped string bytes
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("store: decode cell: %s at offset %d", what, d.i)
	}
}

// opt consumes s if the input continues with it.
func (d *decoder) opt(s string) bool {
	if d.err != nil || len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// lit consumes s, which the input must continue with.
func (d *decoder) lit(s string) {
	if !d.opt(s) {
		d.fail("expected " + s)
	}
}

// elem reports whether a list or object whose opening bracket was
// consumed has another element after the n already read, consuming the
// comma before it or the closing bracket, closer, after the last.
func (d *decoder) elem(n int, closer byte) bool {
	if d.err != nil {
		return false
	}
	if d.i >= len(d.b) {
		d.fail("unterminated list")
		return false
	}
	switch c := d.b[d.i]; {
	case c == closer:
		d.i++
		return false
	case n == 0:
		return true
	case c == ',':
		d.i++
		return true
	}
	d.fail("expected , or closing bracket")
	return false
}

func (d *decoder) cell(c *experiments.Cell) {
	d.lit(`{"policy":`)
	c.Policy = d.policy()
	d.lit(`,"tech":`)
	c.Tech = d.tech()
	d.lit(`,"fus":`)
	c.FUs = d.int()
	d.lit(`,"benchmarks":`)
	if !d.opt("null") {
		d.lit("[")
		var stack [8]string
		names := stack[:0]
		for d.elem(len(names), ']') {
			names = append(names, string(d.str()))
		}
		c.Benchmarks = append([]string{}, names...)
	}
	d.lit(`,"alpha":`)
	c.Alpha = d.float()
	d.lit(`,"l2Latency":`)
	c.L2Latency = d.int()
	d.lit(`,"window":`)
	c.Window = d.uint64()
	if d.opt(`,"agus":`) {
		c.AGUs = d.int()
	}
	if d.opt(`,"mults":`) {
		c.Mults = d.int()
	}
	if d.opt(`,"fpalus":`) {
		c.FPALUs = d.int()
	}
	if d.opt(`,"fpmults":`) {
		c.FPMults = d.int()
	}
	if d.opt(`,"classes":[`) {
		var stack [fu.NumClasses]fu.Class
		list := stack[:0]
		for d.elem(len(list), ']') {
			list = append(list, d.class())
		}
		c.Classes = append([]fu.Class{}, list...)
	}
	if d.opt(`,"assignment":{`) {
		c.Assignment = core.Assignment{}
		for prev := ""; d.elem(len(c.Assignment), '}'); {
			cl := d.key(&prev)
			c.Assignment[cl] = d.policy()
		}
	}
	if d.opt(`,"classTechs":{`) {
		c.ClassTechs = map[fu.Class]core.Tech{}
		for prev := ""; d.elem(len(c.ClassTechs), '}'); {
			cl := d.key(&prev)
			c.ClassTechs[cl] = d.tech()
		}
	}
	d.lit(`}`)
}

// key reads a class-keyed object's key and its colon. Keys must ascend
// by name, so none repeats; prev is the key before it.
func (d *decoder) key(prev *string) fu.Class {
	cl := d.class()
	if d.err == nil {
		if name := cl.String(); name > *prev {
			*prev = name
		} else {
			d.fail("class keys out of order")
		}
	}
	d.lit(":")
	return cl
}

func (d *decoder) policy() core.PolicyConfig {
	var pc core.PolicyConfig
	d.lit(`{"policy":`)
	name := d.str()
	if d.err == nil {
		found := false
		for _, p := range definedPolicies {
			if string(name) == p.String() {
				pc.Policy, found = p, true
				break
			}
		}
		if !found {
			d.fail("unknown policy")
		}
	}
	if d.opt(`,"slices":`) {
		pc.Slices = d.int()
	}
	if d.opt(`,"timeout":`) {
		pc.Timeout = d.int()
	}
	d.lit(`}`)
	return pc
}

func (d *decoder) class() fu.Class {
	name := d.str()
	if d.err != nil {
		return 0
	}
	for cl := fu.Class(0); cl.Valid(); cl++ {
		if string(name) == cl.String() {
			return cl
		}
	}
	d.fail("unknown class")
	return 0
}

func (d *decoder) tech() core.Tech {
	var t core.Tech
	d.lit(`{"p":`)
	t.P = d.float()
	d.lit(`,"c":`)
	t.C = d.float()
	d.lit(`,"sleepOverhead":`)
	t.SleepOverhead = d.float()
	d.lit(`,"duty":`)
	t.Duty = d.float()
	d.lit(`}`)
	return t
}

// number consumes one JSON number and returns its text.
func (d *decoder) number() []byte {
	if d.err != nil {
		return nil
	}
	b, start := d.b, d.i
	i := start
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		d.fail("expected a number")
		return nil
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			d.fail("malformed fraction")
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			d.fail("malformed exponent")
			return nil
		}
	}
	d.i = i
	return b[start:i]
}

// The numeric readers parse as encoding/json does, so a fraction or
// exponent in an integer field, or a value out of range, is an error.

func (d *decoder) int() int {
	tok := d.number()
	if d.err != nil {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		d.fail("bad integer")
	}
	return int(n)
}

func (d *decoder) uint64() uint64 {
	tok := d.number()
	if d.err != nil {
		return 0
	}
	n, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		d.fail("bad unsigned integer")
	}
	return n
}

func (d *decoder) float() float64 {
	tok := d.number()
	if d.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.fail("bad float")
	}
	return f
}

// str consumes one JSON string and returns its unescaped bytes, valid
// until the next call. It takes every escape encoding/json's decoder
// does except a UTF-16 surrogate, and rejects raw control bytes and
// invalid UTF-8, which encoding/json would replace with U+FFFD; the
// canonical encoding contains neither.
func (d *decoder) str() []byte {
	if d.err != nil {
		return nil
	}
	b := d.b
	if d.i >= len(b) || b[d.i] != '"' {
		d.fail("expected a string")
		return nil
	}
	i := d.i + 1
	start := i
	out := d.scratch[:0]
	escaped := false
	for {
		if i >= len(b) {
			d.fail("unterminated string")
			return nil
		}
		c := b[i]
		switch {
		case c == '"':
			d.i = i + 1
			if !escaped {
				return b[start:i]
			}
			d.scratch = append(out, b[start:i]...)
			return d.scratch
		case c < 0x20:
			d.i = i
			d.fail("control byte in string")
			return nil
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				d.i = i
				d.fail("invalid UTF-8 in string")
				return nil
			}
			i += size
		case c != '\\':
			i++
		default:
			out = append(out, b[start:i]...)
			escaped = true
			r, n := unescape(b[i:])
			if n == 0 {
				d.i = i
				d.fail("bad escape")
				return nil
			}
			out = utf8.AppendRune(out, r)
			i += n
			start = i
		}
	}
}

// unescape decodes the backslash escape at the start of b, returning the
// rune and the escape's length, or 0 for a malformed escape or a
// surrogate.
func unescape(b []byte) (rune, int) {
	if len(b) < 2 {
		return 0, 0
	}
	switch b[1] {
	case '"', '\\', '/':
		return rune(b[1]), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		if len(b) < 6 {
			return 0, 0
		}
		var r rune
		for _, c := range b[2:6] {
			switch {
			case '0' <= c && c <= '9':
				c -= '0'
			case 'a' <= c && c <= 'f':
				c -= 'a' - 10
			case 'A' <= c && c <= 'F':
				c -= 'A' - 10
			default:
				return 0, 0
			}
			r = r<<4 | rune(c)
		}
		if 0xd800 <= r && r < 0xe000 {
			return 0, 0
		}
		return r, 6
	}
	return 0, 0
}
