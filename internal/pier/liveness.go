package pier

import (
	"time"

	"repro/internal/obs"
)

// Coordinator-side failure detection. Participants heartbeat through
// their node's ledger outbox: its one ticker ticks beatTicks times per
// Config.HeartbeatEvery, and every query that has sent no ledger for
// all but one tick of a beat re-ships it unchanged (a query enlists at
// participation, not scan completion, so the coordinator learns each
// member's address early). A member that
// misses Config.SuspectAfter consecutive beats is suspected dead: the
// query's completion evaluation drops it from the expected member set
// and drain-round membership (its frozen books still fold into the
// totals). The node-level registry below only reports: it raises one
// suspicion event per address and clears it on any RPC from it.
//
// There is no global failure detector — liveness is trained by query
// traffic, exactly the soft-state bet PIER makes everywhere else.

// markSuspect records a node-level suspicion.
func (n *Node) markSuspect(addr string) {
	if addr == "" || addr == n.Addr() {
		return
	}
	n.suspectMu.Lock()
	known := n.suspects[addr]
	n.suspects[addr] = true
	n.suspectMu.Unlock()
	if !known {
		n.reg.Counter("pier_suspicions_total").Inc()
		n.events.Emit(obs.SevWarn, obs.EvSuspectRaised, 0, "member %s suspected dead", addr)
	}
}

// clearSuspect rehabilitates an address (any RPC from it proves life).
func (n *Node) clearSuspect(addr string) {
	n.suspectMu.Lock()
	known := n.suspects[addr]
	delete(n.suspects, addr)
	n.suspectMu.Unlock()
	if known {
		n.reg.Counter("pier_suspicions_cleared_total").Inc()
		n.events.Emit(obs.SevInfo, obs.EvSuspectCleared, 0, "member %s rehabilitated", addr)
	}
}

// noteAlive records proof of life for addr on this query's
// coordinator clock and clears any node-level suspicion.
func (q *queryState) noteAlive(addr string) {
	if addr == "" {
		return
	}
	q.coMu.Lock()
	if q.lastSeen == nil {
		q.lastSeen = make(map[string]time.Time, q.members+1)
	}
	q.lastSeen[addr] = time.Now()
	q.coMu.Unlock()
	q.node.clearSuspect(addr)
}

// suspectedMembers lists reported members silent for longer than
// window (nil when none). The coordinator itself is never suspect.
// Members that never reported at all do not appear here — they show up
// as delegations no ledger answers (membership).
func (q *queryState) suspectedMembers(window time.Duration) map[string]bool {
	now := time.Now()
	self := q.node.Addr()
	q.coMu.Lock()
	defer q.coMu.Unlock()
	var out map[string]bool
	for addr, seen := range q.lastSeen {
		if addr == self {
			continue
		}
		if now.Sub(seen) > window {
			if out == nil {
				out = make(map[string]bool)
			}
			out[addr] = true
		}
	}
	return out
}
