package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs,
// which it sorts in place; 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	return xs[min(max(rank, 1), len(xs))-1]
}

// beyond is how many of n samples lie above the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// median returns the median of xs (sorting it in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// span is one timed call the traced run made into a module.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a request's root span
	Req    int    `json:"req"`    // request (operation) index
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// selfTimes returns each span's duration minus the part of its interval
// its children cover, indexed like spans.  Children may overlap each
// other or stick out of the parent; only the covered part of the
// parent's own interval is subtracted.
func selfTimes(spans []span) []time.Duration {
	pos := make(map[int]int, len(spans))
	for i, s := range spans {
		pos[s.ID] = i
	}
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if _, ok := pos[s.Parent]; ok && s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - time.Duration(covered(s.Start, s.End, kids[s.ID]))
	}
	return out
}

// covered returns the length of the union of intervals clipped to
// [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
