package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle value (the mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// bucket is one cumulative Prometheus histogram bucket.
type bucket struct {
	le    float64
	count float64
}

// histogram is one Prometheus histogram series read from a text
// exposition.
type histogram struct {
	buckets []bucket // ascending le, cumulative counts, +Inf last
	count   float64
}

// parseHistogram reads the histogram series `name` whose labels include
// every pair in match (other labels are ignored; series that differ only
// in them are summed) from a Prometheus text exposition.
func parseHistogram(text, name string, match map[string]string) (histogram, error) {
	byLE := map[float64]float64{}
	var h histogram
	found := false
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		// Label values may hold spaces, so the value starts after the
		// closing brace when there are labels.
		series, value, ok := strings.Cut(line, " ")
		if i := strings.LastIndexByte(line, '}'); i >= 0 {
			series, value, ok = line[:i+1], strings.TrimSpace(line[i+1:]), true
		}
		if !ok || value == "" {
			continue
		}
		metric, labels, err := splitSeries(series)
		if err != nil {
			return histogram{}, err
		}
		if !strings.HasPrefix(metric, name+"_") || !matches(labels, match) {
			continue
		}
		v, err := strconv.ParseFloat(strings.Fields(value)[0], 64)
		if err != nil {
			return histogram{}, fmt.Errorf("histogram %s: bad value in %q", name, line)
		}
		switch metric[len(name)+1:] {
		case "bucket":
			le, err := strconv.ParseFloat(labels["le"], 64)
			if err != nil {
				return histogram{}, fmt.Errorf("histogram %s: bad le in %q", name, line)
			}
			byLE[le] += v
			found = true
		case "count":
			h.count += v
		}
	}
	if err := sc.Err(); err != nil {
		return histogram{}, err
	}
	if !found {
		return histogram{}, fmt.Errorf("histogram %s%v not in the exposition", name, match)
	}
	for le, c := range byLE {
		h.buckets = append(h.buckets, bucket{le, c})
	}
	sort.Slice(h.buckets, func(i, j int) bool { return h.buckets[i].le < h.buckets[j].le })
	return h, nil
}

// splitSeries splits `name{k="v",...}` into the name and its labels.
func splitSeries(s string) (string, map[string]string, error) {
	name, rest, ok := strings.Cut(s, "{")
	if !ok {
		return s, nil, nil
	}
	rest, ok = strings.CutSuffix(rest, "}")
	if !ok {
		return "", nil, fmt.Errorf("unterminated labels in %q", s)
	}
	labels := map[string]string{}
	for rest != "" {
		k, after, ok := strings.Cut(rest, `="`)
		if !ok {
			return "", nil, fmt.Errorf("bad labels in %q", s)
		}
		var v strings.Builder
		i := 0
		for ; i < len(after) && after[i] != '"'; i++ {
			if after[i] == '\\' && i+1 < len(after) {
				i++
				switch after[i] {
				case 'n':
					v.WriteByte('\n')
				default:
					v.WriteByte(after[i])
				}
				continue
			}
			v.WriteByte(after[i])
		}
		if i == len(after) {
			return "", nil, fmt.Errorf("unterminated label value in %q", s)
		}
		labels[k] = v.String()
		rest = strings.TrimPrefix(after[i+1:], ",")
	}
	return name, labels, nil
}

func matches(labels, match map[string]string) bool {
	for k, v := range match {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// quantile estimates the q-quantile the way Prometheus's
// histogram_quantile does: find the bucket holding rank q*count and
// interpolate linearly inside it, taking 0 as the lower edge of the first
// bucket. A rank in the +Inf bucket returns the largest finite bound.
func (h histogram) quantile(q float64) float64 {
	if len(h.buckets) == 0 || h.count == 0 {
		return 0
	}
	rank := q * h.count
	prevLE, prevCount := 0.0, 0.0
	for _, b := range h.buckets {
		if b.count >= rank && b.count > prevCount {
			if math.IsInf(b.le, 1) {
				return prevLE
			}
			return prevLE + (b.le-prevLE)*(rank-prevCount)/(b.count-prevCount)
		}
		if !math.IsInf(b.le, 1) {
			prevLE = b.le
		}
		prevCount = b.count
	}
	return prevLE
}
