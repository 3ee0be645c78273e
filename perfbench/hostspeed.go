package main

import "time"

// The host's speed.
//
// On a shared host the per-core speed moves by tens of percent between
// runs a minute apart (on a 2-vCPU Xeon VM, repro's median job ranged
// 0.38-0.63 s over ten consecutive runs), and within one run it moves the
// program's work and any other fixed work together. So each measured
// repetition is preceded
// by a fixed reference kernel, and every host timing is reported at the
// nominal host speed, on which the kernel takes refNominal seconds:
// timing x the nominal time / the run's median kernel time. The kernel
// lives in the benchmark, so no change to the program can change its
// cost; only the host can.

const (
	// refIters is the kernel's fixed work.
	refIters = 5_000_000
	// refNominal is the kernel's time, in seconds, on the nominal host.
	refNominal = 0.040
)

// refSink keeps the kernel's result live.
var refSink uint64

// refKernel runs the reference work and returns its wall time in seconds:
// a xorshift stream driving unpredictable branches over a 16 KB table. It
// does not allocate, and it starts from the same state every call.
func refKernel() float64 {
	t0 := time.Now()
	var tab [4096]uint32
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x & (uint64(len(tab)) - 1)
		if tab[k]&1 == 0 {
			tab[k] += uint32(x)
		} else {
			acc += uint64(tab[k])
		}
	}
	refSink += acc
	return time.Since(t0).Seconds()
}

// hostScale is the factor that takes the repetitions' host timings to the
// nominal host: the nominal kernel time over the run's median kernel time.
func hostScale(reps []sample) float64 {
	return refNominal / median(column(reps, func(s sample) float64 { return s.ref }))
}
