package vmem

import (
	"testing"

	"ipcp/internal/memsys"
	"ipcp/internal/trace"
	"ipcp/internal/workload"
)

// benchAddrs returns the data addresses of lbm-94's first n memory
// instructions: the page sequence a streaming core translates.
func benchAddrs(b *testing.B, n int) []memsys.Addr {
	b.Helper()
	spec, err := workload.Named("lbm-94")
	if err != nil {
		b.Fatal(err)
	}
	s := spec.New(1)
	var in trace.Instr
	out := make([]memsys.Addr, 0, n)
	for len(out) < n && s.Next(&in) {
		if v := in.Loads[0] | in.Stores[0]; v != 0 {
			out = append(out, v)
		}
	}
	return out
}

// Results land here so the compiler keeps the measured calls.
var (
	sinkHit  bool
	sinkAddr memsys.Addr
)

func BenchmarkTLBLookup(b *testing.B) {
	addrs := benchAddrs(b, 1<<16)
	tlb := NewHierarchy().DTLB
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkHit = tlb.Lookup(memsys.PageNumber(addrs[i&(len(addrs)-1)]))
	}
}

func BenchmarkTranslate(b *testing.B) {
	addrs := benchAddrs(b, 1<<16)
	pt := NewPageTable(NewPhysAllocator(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkAddr = pt.Translate(addrs[i&(len(addrs)-1)])
	}
}
