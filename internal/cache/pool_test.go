package cache

import (
	"reflect"
	"testing"

	"ipcp/internal/memsys"
	"ipcp/internal/prefetch"
)

// poisonedPool returns a pool of n requests with every field set to a
// non-zero value no construction site writes (ret fills the interface).
func poisonedPool(t *testing.T, n int, ret memsys.Receiver) *memsys.RequestPool {
	t.Helper()
	pool := memsys.NewRequestPool()
	for i := 0; i < n; i++ {
		r := &memsys.Request{}
		v := reflect.ValueOf(r).Elem()
		for f := 0; f < v.NumField(); f++ {
			switch fv := v.Field(f); fv.Kind() {
			case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				fv.SetUint(0xa5a5a5a5a5a5a5a5)
			case reflect.Int, reflect.Int64:
				fv.SetInt(-0x5a5a5a5a5a5a5a5)
			case reflect.Interface:
				fv.Set(reflect.ValueOf(ret))
			default:
				t.Fatalf("poisonedPool: Request.%s is a %s; teach it that kind", v.Type().Field(f).Name, fv.Kind())
			}
			if v.Field(f).IsZero() {
				t.Fatalf("poisonedPool: Request.%s stayed zero", v.Type().Field(f).Name)
			}
		}
		pool.Put(r)
	}
	return pool
}

// captureSink records copies of what a cache forwards; the cache itself
// as ReturnTo is recorded as nil, so two caches' requests compare.
type captureSink struct {
	owner memsys.Receiver
	got   []memsys.Request
}

func (s *captureSink) add(r *memsys.Request) bool {
	c := *r
	if c.ReturnTo == s.owner {
		c.ReturnTo = nil
	}
	s.got = append(s.got, c)
	return true
}

func (s *captureSink) AddRead(r *memsys.Request) bool     { return s.add(r) }
func (s *captureSink) AddWrite(r *memsys.Request) bool    { return s.add(r) }
func (s *captureSink) AddPrefetch(r *memsys.Request) bool { return s.add(r) }

type nopReceiver struct{}

func (nopReceiver) ReturnData(int64, *memsys.Request) {}

// TestPooledRequestsComeBackClean hands issuePrefetch and forward pooled
// requests with every field poisoned: what they build must equal what
// they build from fresh zeroed requests, i.e. they write every field.
func TestPooledRequestsComeBackClean(t *testing.T) {
	build := func(pool *memsys.RequestPool) []memsys.Request {
		cfg := testConfig()
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sink := &captureSink{owner: c}
		c.SetLower(sink)
		c.SetRequestPool(pool)
		c.now = 40

		// issuePrefetch, untranslated and translated.
		for _, translate := range []bool{false, true} {
			if translate {
				c.SetTranslator(func(v memsys.Addr) (memsys.Addr, bool) { return v + 0x10000, true })
			}
			if !c.issuePrefetch(prefetch.Candidate{Addr: 0x4321, IP: 0x400abc, Class: memsys.ClassGS, Meta: 0x105}) {
				t.Fatal("issuePrefetch refused")
			}
			sink.add(c.pq.peek())
			c.pq.pop()
		}

		// forward, of a demand miss and of a prefetch-only one.
		for _, prefetchOnly := range []bool{false, true} {
			first := &memsys.Request{VAddr: 0x7777, IP: 0x400def, Type: memsys.RFO, CoreID: 2, PfOrigin: memsys.LevelL1D}
			if prefetchOnly {
				first.Type = memsys.Prefetch
			}
			e := c.mshr.alloc()
			e.block, e.waiters = 0x99, []*memsys.Request{first}
			e.prefetchOnly, e.class, e.meta = prefetchOnly, memsys.ClassCS, 0x42
			e.fillLevel, e.born = memsys.LevelL2, 33
			if !c.forward(e) {
				t.Fatal("forward refused")
			}
			c.mshr.free(e.block)
		}
		return sink.got
	}

	want := build(nil)
	got := build(poisonedPool(t, 8, nopReceiver{}))
	if len(got) != 4 || len(want) != 4 {
		t.Fatalf("captured %d and %d requests, want 4 each", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d keeps stale pool contents:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
