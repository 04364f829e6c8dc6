package pier

import (
	"time"

	"repro/internal/obs"
)

// Coordinator-side failure detection. Participants heartbeat by
// re-shipping their EOS ledger every Config.HeartbeatEvery (the
// shipper starts at participation, not scan completion, so the
// coordinator learns each member's address early). A member that
// misses Config.SuspectAfter consecutive beats is suspected dead: the
// query's completion evaluation drops it from the expected member set
// and drain-round membership (its frozen books still fold into the
// totals), and the node-level registry below lets later ANALYZE
// gathers rescale their expected-member count instead of paying the
// full quiescence timeout for a node that is gone.
//
// Suspicion is per-address and soft: any RPC arriving from a
// suspected address clears it immediately, and entries expire after
// nodeSuspectTTL so a rejoined-but-quiet node rehabilitates on its
// own. There is no global failure detector — liveness is trained by
// query traffic, exactly the soft-state bet PIER makes everywhere
// else.

// nodeSuspectTTL bounds how long a node-level suspicion persists
// without reconfirmation by a running query.
const nodeSuspectTTL = 15 * time.Second

// markSuspect records (or refreshes) a node-level suspicion.
func (n *Node) markSuspect(addr string) {
	if addr == "" || addr == n.Addr() {
		return
	}
	n.suspectMu.Lock()
	_, known := n.suspects[addr]
	n.suspects[addr] = time.Now()
	n.suspectMu.Unlock()
	if !known {
		n.reg.Counter("pier_suspicions_total").Inc()
		n.events.Emit(obs.SevWarn, obs.EvSuspectRaised, 0, "member %s suspected dead", addr)
	}
}

// clearSuspect rehabilitates an address (any RPC from it proves life).
func (n *Node) clearSuspect(addr string) {
	n.suspectMu.Lock()
	_, known := n.suspects[addr]
	if known {
		delete(n.suspects, addr)
	}
	n.suspectMu.Unlock()
	if known {
		n.reg.Counter("pier_suspicions_cleared_total").Inc()
		n.events.Emit(obs.SevInfo, obs.EvSuspectCleared, 0, "member %s rehabilitated", addr)
	}
}

// suspectCount counts live (un-expired) suspicions, pruning stale ones.
func (n *Node) suspectCount() int {
	now := time.Now()
	n.suspectMu.Lock()
	defer n.suspectMu.Unlock()
	for addr, at := range n.suspects {
		if now.Sub(at) > nodeSuspectTTL {
			delete(n.suspects, addr)
		}
	}
	return len(n.suspects)
}

// EffectiveMembers is Members minus currently suspected members —
// what a gather should actually wait for under churn. Never below 1
// (this node is alive by definition).
func (n *Node) EffectiveMembers() int {
	m := n.Members()
	if s := n.suspectCount(); s > 0 {
		m -= s
		if m < 1 {
			m = 1
		}
	}
	return m
}

// noteAlive records proof of life for addr on this query's
// coordinator clock and clears any node-level suspicion.
func (q *queryState) noteAlive(addr string) {
	if addr == "" {
		return
	}
	q.coMu.Lock()
	if q.lastSeen == nil {
		q.lastSeen = make(map[string]time.Time)
	}
	q.lastSeen[addr] = time.Now()
	q.coMu.Unlock()
	q.node.clearSuspect(addr)
}

// suspectedMembers lists reported members silent for longer than
// window (nil when none). The coordinator itself is never suspect.
// Members that never reported at all do not appear here — they are
// accounted for by comparing reported count against Config.Members.
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
