package experiments

// Combo is one multi-level prefetching combination (the paper's
// Table III).
type Combo struct {
	Name         string
	L1D, L2, LLC string
}

// on is the combination running the given workloads (one per core).
func (c Combo) on(workloads ...string) RunSpec {
	return RunSpec{Workloads: workloads, L1D: c.L1D, L2: c.L2, LLC: c.LLC}
}

// onEach is c running each of names alone: one spec per trace.
func (c Combo) onEach(names []string) []RunSpec {
	specs := make([]RunSpec, len(names))
	for i, n := range names {
		specs[i] = c.on(n)
	}
	return specs
}

// Combos returns the paper's Table III combinations, with their storage:
//
//	SPP+Perceptron+DSPatch  at L2, throttled NL at L1, NL at LLC  32KB at L2 + 0.6KB at L1
//	MLOP                    at L1, NL at L2+LLC                   8KB at L1
//	Bingo (48KB tuning)     at L1, NL at L2+LLC                   48KB at L1
//	TSKID                   at L1, SPP at L2                      52KB at L1 + 6.4KB at L2
//	IPCP                    at L1+L2                              740B at L1 + 155B at L2 = 895B
func Combos() []Combo {
	return []Combo{
		{Name: "SPP+Perc+DSPatch", L1D: "throttled-nl", L2: "spp-ppf-dspatch", LLC: "nl-miss"},
		{Name: "MLOP", L1D: "mlop", L2: "nl", LLC: "nl-miss"},
		{Name: "Bingo", L1D: "bingo", L2: "nl", LLC: "nl-miss"},
		{Name: "TSKID", L1D: "tskid", L2: "spp", LLC: ""},
		ipcpCombo,
	}
}

// baseline is the no-prefetching configuration every figure normalizes
// against; ipcpCombo is the paper's proposal, Combos' last row.
var (
	baseline  = Combo{Name: "no-prefetch"}
	ipcpCombo = Combo{Name: "IPCP", L1D: "ipcp", L2: "ipcp"}
)
