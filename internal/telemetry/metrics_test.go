package telemetry

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram(0.1, 1, 10)
	for _, v := range []float64{0.05, 0.07, 0.5, 2, 3, 4, 5, 6, 7, 50} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 10 {
		t.Fatalf("Count = %d", s.Count)
	}
	want := []HistogramBucket{{0.1, 2}, {1, 3}, {10, 9}}
	for i, b := range s.Buckets {
		if b != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, b, want[i])
		}
	}
	if s.Min != 0.05 || s.Max != 50 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if math.Abs(s.Mean-7.762) > 0.01 {
		t.Errorf("Mean = %v", s.Mean)
	}
	// Rank 5 of 10 lands in the (1,10] bucket; rank 10 in the overflow,
	// reported as Max.
	if s.P50 != 10 {
		t.Errorf("P50 = %v, want 10", s.P50)
	}
	if s.P99 != 50 {
		t.Errorf("P99 = %v, want Max (50)", s.P99)
	}

	// The snapshot must be JSON-encodable (no +Inf bound anywhere).
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot not JSON-encodable: %v", err)
	}
}

func TestHistogramEmpty(t *testing.T) {
	s := NewHistogram().Snapshot()
	if s.Count != 0 || s.Min != 0 || s.Max != 0 || s.Mean != 0 || s.P99 != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
	if len(s.Buckets) != len(DefaultLatencyBuckets) {
		t.Errorf("buckets = %d, want %d", len(s.Buckets), len(DefaultLatencyBuckets))
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(1, 2, 3)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(float64(i % 4))
			}
		}(i)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 4000 {
		t.Errorf("Count = %d, want 4000", s.Count)
	}
}
