package workload

import (
	"testing"

	"ipcp/internal/trace"
)

// sinkOK keeps the measured calls from being optimised away.
var sinkOK bool

func BenchmarkGenNext(b *testing.B) {
	for _, name := range []string{"lbm-94", "mcf-994"} {
		b.Run(name, func(b *testing.B) {
			spec, err := Named(name)
			if err != nil {
				b.Fatal(err)
			}
			s := spec.New(1)
			var in trace.Instr
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkOK = s.Next(&in)
			}
		})
	}
}
