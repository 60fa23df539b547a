package dram

import "fmt"

// Snapshot/restore support. The controller is only captured at
// quiescence — empty read/write queues on every channel — leaving pure
// timing state: per-bank open rows and busy horizons, per-channel bus
// availability and drain mode, and the counters.

// BankState captures one bank's row buffer and availability.
type BankState struct {
	OpenRow   uint64
	RowValid  bool
	BusyUntil int64
}

// ChannelState captures one channel.
type ChannelState struct {
	Banks       []BankState
	BusFreeAt   int64
	DrainWrites bool
}

// ControllerState captures a quiescent controller.
type ControllerState struct {
	Channels []ChannelState
	Stats    Stats
}

// Quiescent reports whether every channel's queues are empty.
func (c *Controller) Quiescent() bool {
	r, w := c.QueueOccupancy()
	return r == 0 && w == 0
}

// CaptureState captures the controller. It must be quiescent.
func (c *Controller) CaptureState() (ControllerState, error) {
	c.Settle()
	if !c.Quiescent() {
		r, w := c.QueueOccupancy()
		return ControllerState{}, fmt.Errorf("dram: not quiescent (reads=%d writes=%d)", r, w)
	}
	s := ControllerState{Channels: make([]ChannelState, len(c.chans)), Stats: c.Stats}
	for i := range c.chans {
		cn := &c.chans[i]
		cs := ChannelState{
			Banks:       make([]BankState, len(cn.banks)),
			BusFreeAt:   cn.busFreeAt,
			DrainWrites: cn.drainWrites,
		}
		for b := range cn.banks {
			cs.Banks[b] = BankState{
				OpenRow:   cn.banks[b].openRow,
				RowValid:  cn.banks[b].rowValid,
				BusyUntil: cn.banks[b].busyUntil,
			}
		}
		s.Channels[i] = cs
	}
	return s, nil
}

// RestoreState overwrites a freshly constructed controller (same
// Config) with the captured state. now re-seats the arrival timestamp
// approximation at the restored cycle.
func (c *Controller) RestoreState(s ControllerState, now int64) error {
	if len(s.Channels) != len(c.chans) {
		return fmt.Errorf("dram: channel-count mismatch (%d vs %d)", len(s.Channels), len(c.chans))
	}
	for i := range c.chans {
		cn := &c.chans[i]
		cs := &s.Channels[i]
		if len(cs.Banks) != len(cn.banks) {
			return fmt.Errorf("dram: bank-count mismatch on channel %d", i)
		}
		for b := range cn.banks {
			cn.banks[b] = bank{
				openRow:   cs.Banks[b].OpenRow,
				rowValid:  cs.Banks[b].RowValid,
				busyUntil: cs.Banks[b].BusyUntil,
			}
		}
		cn.busFreeAt = cs.BusFreeAt
		cn.drainWrites = cs.DrainWrites
		cn.readQ = cn.readQ[:0]
		cn.writeQ = cn.writeQ[:0]
	}
	c.nowApprox = now
	c.acct = now
	c.Stats = s.Stats
	return nil
}
