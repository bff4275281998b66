package netsim

// SetPerHopOracle switches the passive-hop fast path off, so every
// delivery runs Node.Receive: the differential oracle, reachable from
// this package's external tests as well.
func (s *Sim) SetPerHopOracle(on bool) { s.perHop = on }

// PassiveHops reports how many router hops the fast path forwarded.
func (s *Sim) PassiveHops() uint64 { return s.passiveHops }
