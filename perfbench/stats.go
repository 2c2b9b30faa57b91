package main

import (
	"fmt"
	"slices"
	"time"
)

// tailBeyond is how many samples must lie beyond the reported tail
// latency: fewer would make the tail one or two unlucky ops.
const tailBeyond = 10

// minOps is the fewest timed ops a run makes, even past --seconds, so
// that the tail rests on more samples than it leaves beyond.
const minOps = 2*tailBeyond + 1

// closedLoop runs op(0), op(1), ... one after the other in whole
// cycles of cycleLen ops, until seconds have passed and at least minOps
// ops were attempted. It ends only on a cycle boundary, so every run
// of a seed times the same multiset of ops however fast the machine
// is. op reports its latency and whether it succeeded; the latencies of
// successful ops are returned. The loop stops at the first failed op:
// the run is already wrong, and a check that keeps failing must not
// keep it going.
func closedLoop(seconds time.Duration, cycleLen int, op func(i int) (time.Duration, bool)) (lat []float64, busy time.Duration) {
	start := time.Now()
	for i := 0; i%cycleLen != 0 || i < minOps || time.Since(start) < seconds; i++ {
		d, ok := op(i)
		if !ok {
			break
		}
		lat = append(lat, ms(d))
		busy += d
	}
	return lat, busy
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is a latency at the highest percentile that still has
// tailBeyond samples beyond it, with the sample count it rests on.
type tail struct {
	value      float64
	percentile float64
	samples    int
	beyond     int
}

// tailOf returns the sample with exactly tailBeyond samples ranked
// above it: the highest percentile the samples can support.
func tailOf(xs []float64) (tail, error) {
	if len(xs) <= tailBeyond {
		return tail{}, fmt.Errorf("tail needs more than %d samples, have %d", tailBeyond, len(xs))
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := len(s) - 1 - tailBeyond
	return tail{
		value:      s[i],
		percentile: 100 * float64(i+1) / float64(len(s)),
		samples:    len(s),
		beyond:     len(s) - 1 - i,
	}, nil
}

// ratio is a quotient printed with its base, so a reader can tell 0.5
// of 2 from 0.5 of 20000.
type ratio struct {
	num, den float64
}

func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

func (r ratio) note(what string) string {
	return fmt.Sprintf("%.6g / %.6g %s", r.num, r.den, what)
}
