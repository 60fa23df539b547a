package main

import (
	"syscall"
	"time"
)

// The hosts this benchmark runs on are small shared VMs whose CPU speed
// drifts by +-20% over tens of seconds (measured: a fixed ALU loop's
// time has a 18% interquartile range over two minutes, and simulator
// run times follow it). Medians over a 10-second run do not remove a
// drift that slow, so every timed repetition is bracketed by a fixed
// calibration loop and its host times are scaled to a nominal host
// speed. On the same host two commits are then compared at the same
// nominal speed, whatever the neighbours were doing during each run.
//
// Only time the CPU was busy scales with CPU speed; time spent asleep
// (a poll interval, an fsync) does not. A repetition's wall-clock is
// therefore scaled on its CPU-busy share only:
//
//	normalised wall = wall * (1 + busy*(speed-1))
//	normalised cpu  = cpu * speed
//
// where speed = nominal loop time / measured loop time (below 1 when
// the host is slow) and busy = min(1, CPU seconds / (wall * lanes)).

const (
	calibIters = 8_000_000
	// nominalCalib is the calibration loop's time at nominal host speed:
	// 1.9 ns per iteration, the median on the 2-vCPU Xeon 2.1 GHz host
	// the benchmark was sized on. It is a unit, not a claim about any
	// host; changing it rescales every host-time metric.
	nominalCalib = calibIters * 19 / 10 * time.Nanosecond
)

var calibSink uint64

// calibLoop is the fixed work: a dependent xorshift chain, nothing the
// compiler can shorten and nothing that touches memory.
func calibLoop() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return time.Since(start)
}

// timedAt runs fn between two calibration loops and returns the host
// speed factor that held while it ran.
func timedAt(fn func()) (speed float64) {
	before := calibLoop()
	fn()
	after := calibLoop()
	return float64(2*nominalCalib) / float64(before+after)
}

// rep is one timed repetition (or, on a serving workload, one window),
// its host times already scaled to the nominal host speed.
type rep struct {
	wall, cpu       float64 // normalised seconds
	rawWall, rawCPU float64 // seconds as measured
	instr           float64 // simulated instructions delivered
	speed           float64 // host speed factor while it ran
	scale           float64 // what a wall-clock interval inside it is multiplied by
	traced          bool    // a traced pass's span-recording (and profiling) repetition
}

// newRep normalises one measured repetition. lanes is how many CPUs the
// system under test can keep busy; hostCPU is every CPU second spent on
// the host during the repetition (the system's own, plus the load
// generator's where that is on the critical path).
func newRep(wall, cpu, hostCPU, instr, speed float64, lanes int) rep {
	busy := 1.0
	if wall > 0 {
		if b := hostCPU / (wall * float64(lanes)); b < 1 {
			busy = b
		}
	}
	scale := 1 + busy*(speed-1)
	return rep{wall: wall * scale, cpu: cpu * speed, rawWall: wall, rawCPU: cpu, instr: instr, speed: speed, scale: scale}
}

// add folds another repetition into r: a batch of processes run back to
// back is one repetition whose parts were each normalised on their own.
func (r *rep) add(o rep) {
	r.wall += o.wall
	r.cpu += o.cpu
	r.rawWall += o.rawWall
	r.rawCPU += o.rawCPU
	r.instr += o.instr
	r.speed += o.speed // mean taken by the caller
}

// selfCPU is the harness's own user+sys CPU seconds so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
