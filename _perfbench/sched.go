package main

import "math"

// schedule is the open-loop arrival process: Poisson arrivals at a
// fixed mean rate, drawn from the seed.  Offsets are ns from the start
// of the schedule; the sequence depends on the seed and rate alone.
type schedule struct {
	state  uint64
	meanNs float64
	at     float64
}

func newSchedule(seed uint64, ratePerSec float64) *schedule {
	return &schedule{state: splitmix64(seed ^ 0x5ced), meanNs: 1e9 / ratePerSec}
}

// next returns the next arrival's offset in ns.
func (s *schedule) next() int64 {
	s.state = splitmix64(s.state)
	u := (float64(s.state>>11) + 0.5) / (1 << 53) // uniform in (0, 1)
	s.at += -math.Log(u) * s.meanNs
	return int64(s.at)
}
