package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"ipcp/internal/cache"
	"ipcp/internal/core"
	"ipcp/internal/cpu"
	"ipcp/internal/dram"
	"ipcp/internal/memsys"
	"ipcp/internal/prefetch"
	"ipcp/internal/sim"
	"ipcp/internal/trace"
	"ipcp/internal/vmem"
	"ipcp/internal/workload"
)

var drivers = []driver{
	{"trace", traceDriver},
	{"workload", workloadDriver},
	{"cpu", cpuDriver},
	{"cache", cacheDriver},
	{"core", ipcpDriver},
	{"prefetch", prefetchDriver},
	{"dram", dramDriver},
	{"vmem", vmemDriver},
	{"sim", simDriver},
	{"experiments", experimentsDriver},
}

func stream(name string, seed int64) (trace.Stream, error) {
	w, err := workload.Named(name)
	if err != nil {
		return nil, err
	}
	return w.New(seed), nil
}

// --- trace ---------------------------------------------------------------

func traceDriver(b *bench) error {
	s, err := stream("lbm-94", 1)
	if err != nil {
		return err
	}
	instrs := trace.Collect(s, b.scale(200_000))
	count := float64(len(instrs))

	// The same instructions in both formats.
	var v1 bytes.Buffer
	tw, err := trace.NewWriter(&v1)
	if err != nil {
		return err
	}
	for i := range instrs {
		if err := tw.Write(&instrs[i]); err != nil {
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	v1Path, v2Path := filepath.Join(b.dir, "t.trace"), filepath.Join(b.dir, "t.bin")
	if err := os.WriteFile(v1Path, v1.Bytes(), 0o644); err != nil {
		return err
	}
	f, err := os.Create(v2Path)
	if err != nil {
		return err
	}
	bw, err := trace.NewBinaryWriter(f)
	if err == nil {
		for i := range instrs {
			if err = bw.Write(&instrs[i]); err != nil {
				break
			}
		}
		if err == nil {
			err = bw.Close()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	parse, err := perOp(b.slice(4), func() (time.Duration, error) {
		start := time.Now()
		r, err := trace.NewReader(bytes.NewReader(v1.Bytes()))
		if err != nil {
			return 0, err
		}
		var in trace.Instr
		for {
			if err := r.Read(&in); err != nil {
				if errors.Is(err, io.EOF) {
					return time.Since(start), nil
				}
				return 0, err
			}
		}
	})
	if err != nil {
		return err
	}
	b.report("trace.v1_parse_instr_per_s", count/(parse/1000))

	// A fresh Open per pass, so the lazy per-block CRC check is paid
	// every time, as it is by a process that replays a trace once.
	replay, err := perOp(b.slice(4), func() (time.Duration, error) {
		start := time.Now()
		bin, err := trace.OpenBinary(v2Path)
		if err != nil {
			return 0, err
		}
		defer bin.Close()
		st := bin.Stream()
		var in trace.Instr
		n := 0
		for st.Next(&in) {
			n++
		}
		if err := st.Err(); err != nil || n != len(instrs) {
			return 0, fmt.Errorf("v2 replay read %d of %d records: %v", n, len(instrs), err)
		}
		return time.Since(start), nil
	})
	if err != nil {
		return err
	}
	b.report("trace.v2_replay_instr_per_s", count/(replay/1000))

	open, err := perOp(b.slice(4), func() (time.Duration, error) {
		start := time.Now()
		bin, err := trace.OpenBinary(v2Path)
		if err != nil {
			return 0, err
		}
		d := time.Since(start)
		return d, bin.Close()
	})
	if err != nil {
		return err
	}
	b.report("trace.v2_open_ms", open)

	convert, err := perOp(b.slice(4), func() (time.Duration, error) {
		os.Remove(v1Path + ".bin") // a cold sidecar every time
		start := time.Now()
		bin, err := trace.Open(v1Path)
		if err != nil {
			return 0, err
		}
		d := time.Since(start)
		return d, bin.Close()
	})
	if err != nil {
		return err
	}
	b.report("trace.v1_to_v2_convert_ms", convert)
	return nil
}

// --- workload ------------------------------------------------------------

func workloadDriver(b *bench) error {
	for _, g := range []struct{ metric, name string }{
		{"workload.gen_stream_instr_per_s", "lbm-94"},
		{"workload.gen_pointer_instr_per_s", "mcf-994"},
	} {
		s, err := stream(g.name, 1)
		if err != nil {
			return err
		}
		var in trace.Instr
		ns := perCall(b.slice(2), func(n int) {
			for i := 0; i < n; i++ {
				s.Next(&in)
			}
		})
		b.report(g.metric, 1e9/ns)
	}
	return nil
}

// --- test doubles shared by the component drivers --------------------------

// recycler is the top of a request's life in these drivers: what a core
// would be. It hands out requests from a pool and takes them back when
// their data returns.
type recycler struct {
	pool *memsys.RequestPool
	done uint64
}

func (r *recycler) ReturnData(now int64, req *memsys.Request) {
	r.done++
	r.pool.Put(req)
}

// fixedMem is a lower level that accepts everything and answers every
// read after a fixed latency; answers leave in arrival order.
type fixedMem struct {
	latency int64
	now     int64
	pend    []pending
	head    int
}

type pending struct {
	at  int64
	req *memsys.Request
}

func (m *fixedMem) AddRead(r *memsys.Request) bool {
	m.pend = append(m.pend, pending{m.now + m.latency, r})
	return true
}
func (m *fixedMem) AddPrefetch(r *memsys.Request) bool { return m.AddRead(r) }
func (m *fixedMem) AddWrite(r *memsys.Request) bool    { return true }

func (m *fixedMem) Cycle(now int64) {
	m.now = now
	for m.head < len(m.pend) && m.pend[m.head].at <= now {
		p := m.pend[m.head]
		m.head++
		if p.req.ReturnTo != nil {
			p.req.ReturnTo.ReturnData(now, p.req)
		}
	}
	if m.head == len(m.pend) {
		m.pend, m.head = m.pend[:0], 0
	}
}

// blackHole accepts reads and never answers: whatever sits above it
// stalls for good.
type blackHole struct{}

func (blackHole) AddRead(*memsys.Request) bool     { return true }
func (blackHole) AddPrefetch(*memsys.Request) bool { return true }
func (blackHole) AddWrite(*memsys.Request) bool    { return true }

// --- cpu -----------------------------------------------------------------

func cpuDriver(b *bench) error {
	newCore := func(l1d memsys.Sink, l1i memsys.Sink) (*cpu.Core, error) {
		s, err := stream("lbm-94", 1)
		if err != nil {
			return nil, err
		}
		c, err := cpu.New(0, cpu.DefaultConfig(), s, vmem.NewPhysAllocator(1))
		if err != nil {
			return nil, err
		}
		c.SetRequestPool(memsys.NewRequestPool())
		c.Attach(l1d, l1i)
		return c, nil
	}

	// Busy: memory answers on the next cycle, so the core retires at its
	// width and every Cycle call dispatches, issues and retires.
	mem := &fixedMem{latency: 1}
	c, err := newCore(mem, mem)
	if err != nil {
		return err
	}
	now := int64(0)
	start, retired := time.Now(), c.Retired()
	busy := perCall(b.slice(2), func(n int) {
		for i := 0; i < n; i++ {
			mem.Cycle(now)
			c.Cycle(now)
			now++
		}
	})
	rate := float64(c.Retired()-retired) / time.Since(start).Seconds()
	b.report("cpu.cycle_busy_ns", busy)
	b.report("cpu.perfect_mem_instr_per_s", rate)

	// Stalled: data reads are never answered, so the ROB fills behind
	// the first load and every further Cycle call finds nothing to do.
	imem := &fixedMem{latency: 1}
	c, err = newCore(blackHole{}, imem)
	if err != nil {
		return err
	}
	for now = 0; now < 10_000; now++ {
		imem.Cycle(now)
		c.Cycle(now)
	}
	stalled := perCall(b.slice(2), func(n int) {
		for i := 0; i < n; i++ {
			imem.Cycle(now)
			c.Cycle(now)
			now++
		}
	})
	b.report("cpu.cycle_stalled_ns", stalled)
	return nil
}

// --- cache ---------------------------------------------------------------

func cacheDriver(b *bench) error {
	cfg := sim.PaperConfig(1).L1D
	build := func() (*cache.Cache, *fixedMem, *recycler, error) {
		c, err := cache.New(cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		pool := memsys.NewRequestPool()
		mem := &fixedMem{latency: 20}
		c.SetLower(mem)
		c.SetRequestPool(pool)
		return c, mem, &recycler{pool: pool}, nil
	}
	read := func(c *cache.Cache, top *recycler, addr memsys.Addr, now int64) bool {
		r := top.pool.Get()
		*r = memsys.Request{Addr: addr, VAddr: addr, IP: 0x400000, Type: memsys.Load,
			FillLevel: cfg.Level, ReturnTo: top, Born: now}
		if !c.AddRead(r) {
			top.pool.Put(r)
			return false
		}
		return true
	}

	// Idle: empty queues, nothing in flight.
	c, _, _, err := build()
	if err != nil {
		return err
	}
	now := int64(0)
	b.report("cache.cycle_idle_ns", perCall(b.slice(5), func(n int) {
		for i := 0; i < n; i++ {
			c.Cycle(now)
			now++
		}
	}))
	sink := int64(0)
	b.report("cache.next_event_ns", perCall(b.slice(5), func(n int) {
		for i := 0; i < n; i++ {
			sink += c.NextEvent(now)
			now++
		}
	}))
	_ = sink

	// Hit: one read per cycle to a resident working set of half the
	// cache.
	c, mem, top, err := build()
	if err != nil {
		return err
	}
	lines := memsys.Addr(cfg.Sets * cfg.Ways / 2)
	step := func() {
		mem.Cycle(now)
		c.Cycle(now)
		now++
	}
	for i := memsys.Addr(0); i < lines; i++ {
		for !read(c, top, 0x10000000+i*memsys.BlockSize, now) {
			step()
		}
		step()
	}
	for i := 0; i < 200; i++ {
		step()
	}
	next := memsys.Addr(0)
	b.report("cache.cycle_hit_ns", perCall(b.slice(5), func(n int) {
		for i := 0; i < n; i++ {
			read(c, top, 0x10000000+(next%lines)*memsys.BlockSize, now)
			next++
			step()
		}
	}))
	if c.Stats.Miss[memsys.Load] != uint64(lines) {
		return fmt.Errorf("hit stream missed: %d misses for %d resident lines", c.Stats.Miss[memsys.Load], lines)
	}

	// Miss: a new block every cycle; the MSHRs and the 20-cycle lower
	// level bound how many are accepted.
	c, mem, top, err = build()
	if err != nil {
		return err
	}
	now, next = 0, 0
	b.report("cache.cycle_miss_ns", perCall(b.slice(5), func(n int) {
		for i := 0; i < n; i++ {
			if read(c, top, 0x20000000+next*memsys.BlockSize, now) {
				next++
			}
			step()
		}
	}))

	// Mixed: alternate a resident block and a new one; completed reads
	// per host second.
	start, done := time.Now(), top.done
	hot := memsys.Addr(0)
	perCall(b.slice(5), func(n int) {
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				// The 16 most recently filled blocks are resident.
				read(c, top, 0x20000000+(next-1-hot%16)*memsys.BlockSize, now)
				hot++
			} else if read(c, top, 0x20000000+next*memsys.BlockSize, now) {
				next++
			}
			step()
		}
	})
	b.report("cache.reads_per_s", float64(top.done-done)/time.Since(start).Seconds())
	return nil
}

// --- IPCP ------------------------------------------------------------------

// counter is the Issuer the prefetcher drivers pass to Operate.
type counter struct{ n uint64 }

func (c *counter) Issue(prefetch.Candidate) bool { c.n++; return true }

const accessStream = 1 << 16

// strideStream: eight IPs, each walking its own pages three lines at a
// time - the constant-stride class.
func strideStream() []prefetch.Access {
	out := make([]prefetch.Access, accessStream)
	var pos [8]uint64
	for i := range out {
		ip := i % 8
		addr := uint64(0x100000000) + uint64(ip)<<28 + pos[ip]*3*memsys.BlockSize
		pos[ip]++
		out[i] = prefetch.Access{Addr: addr, VAddr: addr, IP: 0x400000 + uint64(ip)*16, Type: memsys.Load, Hit: i%4 == 0}
	}
	return out
}

// denseStream: many IPs sweeping consecutive lines of one region after
// another - the global-stream class.
func denseStream() []prefetch.Access {
	out := make([]prefetch.Access, accessStream)
	for i := range out {
		addr := uint64(0x200000000) + uint64(i)*memsys.BlockSize
		out[i] = prefetch.Access{Addr: addr, VAddr: addr, IP: 0x500000 + uint64(i%24)*8, Type: memsys.Load}
	}
	return out
}

// irregularStream: 64 IPs touching pseudo-random lines - nothing to
// classify, so the lookup and training cost without a payoff.
func irregularStream() []prefetch.Access {
	out := make([]prefetch.Access, accessStream)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := uint64(0x300000000) + (x%(1<<24))*memsys.BlockSize
		out[i] = prefetch.Access{Addr: addr, VAddr: addr, IP: 0x600000 + (x>>40)%64*4, Type: memsys.Load}
	}
	return out
}

// operateLoop times p.Operate over a recorded access stream.
func operateLoop(budget time.Duration, p prefetch.Prefetcher, accs []prefetch.Access, iss prefetch.Issuer) float64 {
	now, k := int64(0), 0
	return perCall(budget, func(n int) {
		for i := 0; i < n; i++ {
			p.Operate(now, &accs[k], iss)
			p.Cycle(now)
			now += 3
			if k++; k == len(accs) {
				k = 0
			}
		}
	})
}

func ipcpDriver(b *bench) error {
	iss := &counter{}
	stride := strideStream()

	// Exact: candidates per access over one pass of the stride stream on
	// a cold prefetcher.
	p := core.NewL1IPCP(core.DefaultL1Config())
	for i := range stride {
		p.Operate(int64(i)*3, &stride[i], iss)
	}
	b.report("core.l1_candidates_per_access", float64(iss.n)/float64(len(stride)))

	for _, s := range []struct {
		metric string
		accs   []prefetch.Access
	}{
		{"core.l1_operate_cs_ns", stride},
		{"core.l1_operate_gs_ns", denseStream()},
		{"core.l1_operate_irregular_ns", irregularStream()},
	} {
		b.report(s.metric, operateLoop(b.slice(4), core.NewL1IPCP(core.DefaultL1Config()), s.accs, iss))
	}

	// The L2 sees the L1's prefetch requests with their metadata, and
	// the demand misses that got past the L1.
	l2 := make([]prefetch.Access, accessStream)
	meta := memsys.Metadata{Class: memsys.ClassCS, Stride: 3}.Encode()
	for i := range l2 {
		a := stride[i]
		a.VAddr = 0
		if i%3 != 0 {
			a.Type, a.Meta = memsys.Prefetch, meta
		}
		l2[i] = a
	}
	b.report("core.l2_operate_ns", operateLoop(b.slice(4), core.NewL2IPCP(core.DefaultL2Config()), l2, iss))
	return nil
}

// --- baseline prefetchers and the guard ------------------------------------

// recordedStream is the data-access stream of three real generators,
// interleaved: what a baseline prefetcher sees at the L1-D.
func recordedStream() ([]prefetch.Access, error) {
	var out []prefetch.Access
	for _, name := range []string{"lbm-94", "mcf-994", "gcc-2226"} {
		s, err := stream(name, 1)
		if err != nil {
			return nil, err
		}
		var in trace.Instr
		for n := 0; n < accessStream/3; {
			s.Next(&in)
			for _, a := range in.Loads {
				if a != 0 {
					out = append(out, prefetch.Access{Addr: a, VAddr: a, IP: in.IP, Type: memsys.Load, Hit: n%3 == 0})
					n++
				}
			}
		}
	}
	return out, nil
}

func prefetchDriver(b *bench) error {
	accs, err := recordedStream()
	if err != nil {
		return err
	}
	names := []string{"nl", "ipstride", "stream", "bop", "spp", "mlop", "bingo", "vldp", "sms", "tskid"}
	iss := &counter{}
	for _, name := range names {
		p, err := prefetch.New(name, memsys.LevelL1D)
		if err != nil {
			return err
		}
		b.report("prefetch.operate_ns."+name, operateLoop(b.slice(len(names)+3), p, accs, iss))
	}

	// The guard's cost is what it adds to the IPCP it wraps in every
	// simulated system.
	stride := strideStream()
	bare := operateLoop(b.slice(len(names)+3), core.NewL1IPCP(core.DefaultL1Config()), stride, iss)
	g := prefetch.NewGuard(core.NewL1IPCP(core.DefaultL1Config()), memsys.LevelL1D)
	guarded := operateLoop(b.slice(len(names)+3), g, stride, iss)
	b.report("prefetch.guard_overhead_ns", guarded-bare)
	now := int64(0)
	b.report("prefetch.guard_cycle_ns", perCall(b.slice(len(names)+3), func(n int) {
		for i := 0; i < n; i++ {
			g.Cycle(now)
			now++
		}
	}))
	return nil
}

// --- dram ------------------------------------------------------------------

// dramAddr is the driver's address stream: mostly sequential blocks (row
// hits), with a jump to another row every 64 reads.
func dramAddr(i uint64) memsys.Addr {
	return (i/64*7919%4096)<<20 + i%64*memsys.BlockSize
}

func dramDriver(b *bench) error {
	c, err := dram.New(dram.DefaultConfig(1))
	if err != nil {
		return err
	}
	now := int64(0)
	b.report("dram.cycle_idle_ns", perCall(b.slice(3), func(n int) {
		for i := 0; i < n; i++ {
			c.Cycle(now)
			now++
		}
	}))

	feed := func(c *dram.Controller, top *recycler, next *uint64, now int64) {
		r := top.pool.Get()
		*r = memsys.Request{Addr: dramAddr(*next), Type: memsys.Load, ReturnTo: top, Born: now}
		if c.AddRead(r) {
			*next++
		} else {
			top.pool.Put(r)
		}
	}

	// Exact: the row-hit share of a fixed number of cycles of that stream.
	c, _ = dram.New(dram.DefaultConfig(1))
	top := &recycler{pool: memsys.NewRequestPool()}
	c.SetRequestPool(top.pool)
	next := uint64(0)
	for now = 0; now < int64(b.scale(400_000)); now++ {
		feed(c, top, &next, now)
		c.Cycle(now)
	}
	st := c.Stats
	b.report("dram.row_hit_frac", float64(st.RowHits)/float64(st.RowHits+st.RowMisses+st.RowConflicts))

	start, done := time.Now(), top.done
	busy := perCall(b.slice(3), func(n int) {
		for i := 0; i < n; i++ {
			feed(c, top, &next, now)
			c.Cycle(now)
			now++
		}
	})
	b.report("dram.cycle_busy_ns", busy)
	b.report("dram.reads_per_s", float64(top.done-done)/time.Since(start).Seconds())
	return nil
}

// --- vmem ------------------------------------------------------------------

func vmemDriver(b *bench) error {
	pt := vmem.NewPageTable(vmem.NewPhysAllocator(1))
	const pages = 1 << 14 // a 64 MiB footprint
	for p := uint64(0); p < pages; p++ {
		pt.Translate(0x7f0000000000 + p*memsys.PageSize)
	}
	x, sink := uint64(1), uint64(0)
	b.report("vmem.translate_ns", perCall(b.slice(2), func(n int) {
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			sink += pt.Translate(0x7f0000000000 + (x>>33)%pages*memsys.PageSize + x%memsys.PageSize)
		}
	}))
	tlb := vmem.NewTLB(16, 4)
	hits := 0
	b.report("vmem.tlb_lookup_ns", perCall(b.slice(2), func(n int) {
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			if tlb.Lookup((x >> 33) % 128) {
				hits++
			}
		}
	}))
	_, _ = sink, hits
	return nil
}

// --- sim -------------------------------------------------------------------

var mix8 = []string{"lbm-94", "mcf-1536", "bwaves-2931", "exchange2-387", "roms-1070", "omnetpp-17", "gcc-2226", "xalancbmk-165"}

func simConfig(names []string, warmOnly bool) (sim.Config, []trace.Stream, error) {
	cfg := sim.PaperConfig(len(names))
	cfg.Seed = 1
	cfg.L1DPrefetcher = sim.PrefetcherSpec{Name: "ipcp"}
	cfg.L2Prefetcher = sim.PrefetcherSpec{Name: "ipcp"}
	cfg.CacheWarmOnly = warmOnly
	streams := make([]trace.Stream, len(names))
	for i, n := range names {
		s, err := stream(n, 1)
		if err != nil {
			return cfg, nil, err
		}
		streams[i] = s
	}
	return cfg, streams, nil
}

func simDriver(b *bench) error {
	for _, c := range []struct {
		metric string
		names  []string
	}{
		{"sim.build_1core_ms", mix8[:1]},
		{"sim.build_8core_ms", mix8},
	} {
		ms, err := perOp(b.slice(6), func() (time.Duration, error) {
			cfg, streams, err := simConfig(c.names, false)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			_, err = sim.Build(cfg, streams)
			return time.Since(start), err
		})
		if err != nil {
			return err
		}
		b.report(c.metric, ms)
	}

	// One warmed, drained single-core system to snapshot.
	cfg, streams, err := simConfig(mix8[:1], true)
	if err != nil {
		return err
	}
	sys, err := sim.Build(cfg, streams)
	if err != nil {
		return err
	}
	if err := sys.RunWarmup(context.Background(), uint64(b.scale(50_000))); err != nil {
		return err
	}
	var snap *sim.Snapshot
	ms, err := perOp(b.slice(6), func() (time.Duration, error) {
		start := time.Now()
		var err error
		snap, err = sys.Snapshot()
		return time.Since(start), err
	})
	if err != nil {
		return err
	}
	b.report("sim.snapshot_ms", ms)

	ms, err = perOp(b.slice(6), func() (time.Duration, error) {
		cfg, streams, err := simConfig(mix8[:1], true)
		if err != nil {
			return 0, err
		}
		fresh, err := sim.Build(cfg, streams)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		err = fresh.RestoreSnapshot(snap)
		return time.Since(start), err
	})
	if err != nil {
		return err
	}
	b.report("sim.restore_ms", ms)

	var enc []byte
	ms, err = perOp(b.slice(6), func() (time.Duration, error) {
		start := time.Now()
		var err error
		enc, err = sim.EncodeSnapshot(snap)
		return time.Since(start), err
	})
	if err != nil {
		return err
	}
	b.report("sim.snapshot_encode_ms", ms)
	ms, err = perOp(b.slice(6), func() (time.Duration, error) {
		start := time.Now()
		_, err := sim.DecodeSnapshot(enc)
		return time.Since(start), err
	})
	if err != nil {
		return err
	}
	b.report("sim.snapshot_decode_ms", ms)
	b.report("sim.snapshot_bytes", float64(len(enc)))
	return nil
}
