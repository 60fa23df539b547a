package cpu

import (
	"reflect"
	"testing"

	"ipcp/internal/memsys"
	"ipcp/internal/vmem"
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

// captureL1 records copies of what a core sends; the core itself as
// ReturnTo is recorded as nil, so two cores' requests compare.
type captureL1 struct {
	owner memsys.Receiver
	got   []memsys.Request
}

func (s *captureL1) AddRead(r *memsys.Request) bool {
	c := *r
	if c.ReturnTo == s.owner {
		c.ReturnTo = nil
	}
	s.got = append(s.got, c)
	return true
}

func (s *captureL1) AddWrite(*memsys.Request) bool    { return false }
func (s *captureL1) AddPrefetch(*memsys.Request) bool { return false }

type nopReceiver struct{}

func (nopReceiver) ReturnData(int64, *memsys.Request) {}

// TestPooledRequestsComeBackClean hands fetchBlock and issueLoads (a load
// and a store) pooled requests with every field poisoned: what they
// build must equal what they build from fresh zeroed requests, i.e. they
// write every field.
func TestPooledRequestsComeBackClean(t *testing.T) {
	build := func(pool *memsys.RequestPool) []memsys.Request {
		c, err := New(3, DefaultConfig(), computeStream(1), vmem.NewPhysAllocator(1))
		if err != nil {
			t.Fatal(err)
		}
		l1 := &captureL1{owner: c}
		c.Attach(l1, l1)
		c.SetRequestPool(pool)
		c.fetchBlock(7, 0x400010)
		for _, store := range []bool{false, true} {
			pl := c.loadQ.push()
			*pl = pendingLoad{seq: 9, vaddr: 0x1238, paddr: 0x9238, ipVal: 0x400020, readyAt: 7, isStore: store}
		}
		c.issueLoads(8)
		return l1.got
	}

	want := build(nil)
	got := build(poisonedPool(t, 8, nopReceiver{}))
	if len(got) != 3 || len(want) != 3 {
		t.Fatalf("captured %d and %d requests, want 3 each", len(want), len(got))
	}
	for i, typ := range []memsys.AccessType{memsys.CodeRead, memsys.Load, memsys.RFO} {
		if want[i].Type != typ {
			t.Errorf("request %d is a %v, want a %v", i, want[i].Type, typ)
		}
		if got[i] != want[i] {
			t.Errorf("request %d keeps stale pool contents:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
