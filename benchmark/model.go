package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// canonicalJSON re-renders a JSON document so that two documents with
// the same content have the same bytes: object keys sorted, no
// insignificant whitespace, integers kept as written and every other
// number printed as the shortest decimal that round-trips its float64.
// The benchmark pins no golden statistics; it compares and hashes
// canonical forms instead, so a change of indentation or field order in
// the program's output does not read as a change of the model.
func canonicalJSON(doc []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := writeCanonical(&b, v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func writeCanonical(b *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			kb, _ := json.Marshal(k)
			b.Write(kb)
			b.WriteByte(':')
			if err := writeCanonical(b, x[k]); err != nil {
				return err
			}
		}
		b.WriteByte('}')
	case []any:
		b.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				b.WriteByte(',')
			}
			if err := writeCanonical(b, e); err != nil {
				return err
			}
		}
		b.WriteByte(']')
	case json.Number:
		s := x.String()
		if !strings.ContainsAny(s, ".eE") {
			b.WriteString(s) // integers can exceed 2^53; keep the digits
			break
		}
		f, err := x.Float64()
		if err != nil {
			return fmt.Errorf("number %q: %w", s, err)
		}
		if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
			b.WriteString(strconv.FormatInt(int64(f), 10)) // 2.0 and 2 are the same statistic
		} else {
			b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
		}
	default:
		enc, err := json.Marshal(x)
		if err != nil {
			return err
		}
		b.Write(enc)
	}
	return nil
}

// digest is the SHA-256 of the workload's canonicalised simulated
// output, in hex. digest48 is its first 48 bits as a number, which is
// how it travels in the metrics object (metric values are numbers).
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digest48(hexDigest string) float64 {
	if len(hexDigest) < 12 {
		return 0
	}
	n, _ := strconv.ParseUint(hexDigest[:12], 16, 64)
	return float64(n)
}

// simResult is the part of the simulator's result JSON (ipcpsim -json,
// a job's "result", a sweep point's "result") that the model metrics
// read. Access-type index: 0 load, 1 RFO, 2 prefetch, 3 writeback, 4
// code read. Class index: 0 none, 1 CS, 2 CPLX, 3 GS, 4 NL.
type simResult struct {
	Cores         int
	Instructions  uint64
	CyclesPerCore []int64
	IPC           []float64
	L1D, L2       []cacheStats
	LLC           cacheStats
	DRAM          struct {
		Reads, Writes, RowHits, RowMisses, RowConflicts uint64
		BusBusyCycles, Cycles                           uint64
	}
}

type cacheStats struct {
	Miss           [5]uint64
	PrefetchIssued uint64
	PrefetchFills  uint64
	PrefetchUseful uint64
	IssuedByClass  [5]uint64
}

func (c cacheStats) demandMisses() uint64 { return c.Miss[0] + c.Miss[1] + c.Miss[4] }

// parseSimResult decodes one result document and checks the invariants
// any finished run satisfies.
func parseSimResult(doc []byte) (*simResult, error) {
	var r simResult
	if err := json.Unmarshal(doc, &r); err != nil {
		return nil, fmt.Errorf("unparsable result: %w", err)
	}
	if r.Cores < 1 || len(r.IPC) != r.Cores || len(r.CyclesPerCore) != r.Cores || r.Instructions == 0 {
		return nil, fmt.Errorf("inconsistent result: cores=%d ipc=%d cycles=%d instructions=%d",
			r.Cores, len(r.IPC), len(r.CyclesPerCore), r.Instructions)
	}
	for i, ipc := range r.IPC {
		if !(ipc > 0) {
			return nil, fmt.Errorf("core %d IPC %v is not positive", i, ipc)
		}
	}
	return &r, nil
}

func (r *simResult) sumIPC() float64 {
	s := 0.0
	for _, v := range r.IPC {
		s += v
	}
	return s
}

func (r *simResult) cycles() int64 {
	m := int64(0)
	for _, c := range r.CyclesPerCore {
		if c > m {
			m = c
		}
	}
	return m
}

// modelMetrics aggregates the simulated statistics of every result a
// workload returned: counts are summed over results and cores, rates
// are taken over the summed counts, and model.ipc is the mean over
// results of the per-core IPC sum.
func modelMetrics(results []*simResult) map[string]float64 {
	m := map[string]float64{}
	if len(results) == 0 {
		return m
	}
	var instr, cycles, busBusy, dramCycles float64
	var l1, l2 cacheStats
	var llcMiss, reads, writes, ipc float64
	for _, r := range results {
		instr += float64(r.Instructions) * float64(r.Cores)
		cycles += float64(r.cycles())
		ipc += r.sumIPC()
		for _, c := range r.L1D {
			addCache(&l1, c)
		}
		for _, c := range r.L2 {
			addCache(&l2, c)
		}
		llcMiss += float64(r.LLC.demandMisses())
		reads += float64(r.DRAM.Reads)
		writes += float64(r.DRAM.Writes)
		busBusy += float64(r.DRAM.BusBusyCycles)
		dramCycles += float64(r.DRAM.Cycles)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["model.ipc"] = ipc / float64(len(results))
	m["sim.cycles"] = cycles
	m["model.l1d_mpki"] = ratio(float64(l1.demandMisses())*1000, instr)
	m["model.l2_mpki"] = ratio(float64(l2.demandMisses())*1000, instr)
	m["model.llc_mpki"] = ratio(llcMiss*1000, instr)
	m["model.l1d_pf_issued"] = float64(l1.PrefetchIssued)
	m["model.l1d_pf_useful"] = float64(l1.PrefetchUseful)
	m["model.l1d_pf_accuracy"] = ratio(float64(l1.PrefetchUseful), float64(l1.PrefetchFills))
	m["model.l2_pf_issued"] = float64(l2.PrefetchIssued)
	m["model.l2_pf_useful"] = float64(l2.PrefetchUseful)
	m["model.dram_reads"] = reads
	m["model.dram_writes"] = writes
	m["model.dram_bus_util"] = ratio(busBusy, dramCycles)
	classified := float64(l1.IssuedByClass[1] + l1.IssuedByClass[2] + l1.IssuedByClass[3] + l1.IssuedByClass[4])
	for i, name := range []string{"cs", "cplx", "gs", "nl"} {
		m["model.class_share_"+name] = ratio(float64(l1.IssuedByClass[i+1]), classified)
	}
	return m
}

func addCache(dst *cacheStats, c cacheStats) {
	for i := range dst.Miss {
		dst.Miss[i] += c.Miss[i]
		dst.IssuedByClass[i] += c.IssuedByClass[i]
	}
	dst.PrefetchIssued += c.PrefetchIssued
	dst.PrefetchFills += c.PrefetchFills
	dst.PrefetchUseful += c.PrefetchUseful
}
