package attrib

// Suspects returns the blamed ports of one datapath.
func (a *Attributor) Suspects(dpid uint64) []uint16 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []uint16
	for _, ps := range a.ports {
		if ps.dpid == dpid && ps.blamed {
			out = append(out, ps.port)
		}
	}
	return out
}

// PortBlame returns a port's current normalised excursion score.
func (a *Attributor) PortBlame(dpid uint64, port uint16) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	ps := a.ports[portKey(dpid, port)]
	if ps == nil {
		return 0
	}
	if ps.blamed && ps.cusum < a.cfg.CUSUMThreshold {
		return 1
	}
	return ps.cusum / a.cfg.CUSUMThreshold
}

// Pending returns how many port samples are buffered since the last
// Flush (a cheap "is there anything to merge" probe).
func (o *ShardObserver) Pending() int { return len(o.ports) }

// TCPTrackedSources returns the evidence-table occupancy (bounded by
// Config.TCPMaxSources at every Roll barrier).
func (a *Attributor) TCPTrackedSources() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.tcpSrc)
}
