package telemetry

import (
	"math"
	"sort"
	"sync"
)

// This file is the serving-side latency histogram, built for ipcpd's
// /metrics endpoint but usable by any long-running harness. Unlike the
// event tracer and interval log — which observe one simulation — it
// aggregates across a process lifetime and many concurrent jobs, so it
// is safe for concurrent use. Counters are plain fields of a daemon's
// metrics snapshot, kept under the daemon's own lock (prometheus.go).

// DefaultLatencyBuckets spans sub-millisecond cache hits to minutes-long
// default-scale experiment jobs.
var DefaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120, 300,
}

// Histogram accumulates observations into fixed cumulative buckets
// (Prometheus-style "le" bounds). The zero value is not usable; call
// NewHistogram.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; observations above the last land in the overflow
	counts []uint64  // per-bucket (non-cumulative), len(bounds)+1 with the overflow last
	sum    float64
	count  uint64
	min    float64
	max    float64
}

// NewHistogram returns a histogram over the given ascending upper
// bounds (DefaultLatencyBuckets when none are given).
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1), min: math.Inf(1), max: math.Inf(-1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// HistogramBucket is one cumulative bucket: Count observations were
// <= LE. The overflow bucket (observations above the last bound) is
// not listed — it is Snapshot.Count minus the last bucket's Count —
// so the snapshot stays JSON-encodable (no +Inf bound).
type HistogramBucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram, shaped for
// JSON. Min/Max/Mean are 0 when Count is 0.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Min     float64           `json:"min"`
	Max     float64           `json:"max"`
	Mean    float64           `json:"mean"`
	P50     float64           `json:"p50"`
	P90     float64           `json:"p90"`
	P99     float64           `json:"p99"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot returns a consistent copy with cumulative buckets and
// estimated quantiles.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	s := HistogramSnapshot{Count: h.count, Sum: h.sum}
	if h.count > 0 {
		s.Min, s.Max, s.Mean = h.min, h.max, h.sum/float64(h.count)
	}
	h.mu.Unlock()

	cum := uint64(0)
	s.Buckets = make([]HistogramBucket, len(h.bounds))
	for i, b := range h.bounds {
		cum += counts[i]
		s.Buckets[i] = HistogramBucket{LE: b, Count: cum}
	}
	s.P50 = quantile(h.bounds, counts, s, 0.50)
	s.P90 = quantile(h.bounds, counts, s, 0.90)
	s.P99 = quantile(h.bounds, counts, s, 0.99)
	return s
}

// quantile estimates the q-quantile from bucket counts: the upper bound
// of the bucket holding the q-th observation (Max for the overflow
// bucket, so a saturated histogram still reports something finite).
func quantile(bounds []float64, counts []uint64, s HistogramSnapshot, q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	cum := uint64(0)
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i < len(bounds) {
				return bounds[i]
			}
			return s.Max
		}
	}
	return s.Max
}
