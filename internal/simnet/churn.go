// Churn scripting: deterministic failure injection for the simulated
// network. A ChurnScript is an ordered list of timed events — crashes,
// rejoins, partitions, heals, latency storms — that a Churner replays
// against a live Network. Scripts are either hand-built or generated
// from a seeded rate model (GenerateScript), so any churn experiment
// can be replayed bit-for-bit from its seed.
package simnet

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// ChurnKind is the type of a scripted failure event.
type ChurnKind uint8

const (
	// ChurnCrash marks the listed nodes down (SetDown true).
	ChurnCrash ChurnKind = iota
	// ChurnRejoin marks the listed nodes up (SetDown false).
	ChurnRejoin
	// ChurnPartition splits the network into the event's Groups.
	ChurnPartition
	// ChurnHeal removes all partitions.
	ChurnHeal
	// ChurnLatencyStorm multiplies message latency by Factor for
	// Dur, then restores it (factor 1).
	ChurnLatencyStorm
)

// String names the event kind for logs and replay diffing.
func (k ChurnKind) String() string {
	switch k {
	case ChurnCrash:
		return "crash"
	case ChurnRejoin:
		return "rejoin"
	case ChurnPartition:
		return "partition"
	case ChurnHeal:
		return "heal"
	case ChurnLatencyStorm:
		return "latency-storm"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ChurnEvent is one timed action against the network.
type ChurnEvent struct {
	// At is the offset from Churner start at which the event fires.
	At time.Duration
	// Kind selects the action.
	Kind ChurnKind
	// Nodes are the targets of a crash or rejoin.
	Nodes []string
	// Groups are the partition groups for ChurnPartition.
	Groups [][]string
	// Factor is the latency multiplier for ChurnLatencyStorm.
	Factor float64
	// Dur is how long a latency storm lasts before the factor is
	// restored to 1. Zero means the storm persists until a later
	// event (or Stop) changes the factor.
	Dur time.Duration
}

// ChurnScript is a time-ordered event sequence.
type ChurnScript []ChurnEvent

// Sort orders the script by event time (stable, so equal-time events
// keep their authored order).
func (s ChurnScript) Sort() {
	sort.SliceStable(s, func(i, j int) bool { return s[i].At < s[j].At })
}

// ChurnRates parameterizes GenerateScript's seeded failure model.
type ChurnRates struct {
	// CrashPerMin is the expected fraction of eligible nodes that
	// crash per minute (0.05 = 5%/min). Every crash schedules a
	// rejoin after DownFor, giving per-node flap cycles.
	CrashPerMin float64
	// DownFor bounds how long a crashed node stays down before its
	// scripted rejoin. Zero means [1s, 5s).
	DownForMin, DownForMax time.Duration
	// PartitionPerMin is the expected number of partition events per
	// minute; each splits a random ~quarter of the nodes off and
	// heals after HealAfter (default 2s).
	PartitionPerMin float64
	HealAfter       time.Duration
	// StormPerMin is the expected number of latency storms per
	// minute; each multiplies latency by StormFactor (default 8) for
	// StormFor (default 1s).
	StormPerMin float64
	StormFactor float64
	StormFor    time.Duration
}

// GenerateScript builds a deterministic churn script over nodes for
// the given horizon from a seeded rate model. The same (nodes, horizon,
// rates, seed) always yields the same script. Nodes are flapped —
// every crash is paired with a rejoin — and no event starts while one
// of its kind is still active: a node is never crashed while down, a
// partition never starts before the previous one heals (Partition
// replaces the groups, so the earlier heal would end it early), and a
// storm never starts before the previous one ends (its end timer would
// reset the factor mid-storm). An event may start only after the
// previous one's end, never at the same instant: equal-time timers
// fire in no fixed order.
func GenerateScript(nodes []string, horizon time.Duration, rates ChurnRates, seed int64) ChurnScript {
	if rates.DownForMin <= 0 {
		rates.DownForMin = time.Second
	}
	if rates.DownForMax <= rates.DownForMin {
		rates.DownForMax = rates.DownForMin + 4*time.Second
	}
	if rates.HealAfter <= 0 {
		rates.HealAfter = 2 * time.Second
	}
	if rates.StormFactor <= 0 {
		rates.StormFactor = 8
	}
	if rates.StormFor <= 0 {
		rates.StormFor = time.Second
	}
	rng := rand.New(rand.NewSource(seed))
	var script ChurnScript

	// Crash/rejoin flaps: walk time in 100ms steps; each step each
	// up node crashes with probability CrashPerMin * step/minute.
	const step = 100 * time.Millisecond
	if rates.CrashPerMin > 0 && len(nodes) > 0 {
		pCrash := rates.CrashPerMin * (float64(step) / float64(time.Minute))
		upUntil := make(map[string]time.Duration, len(nodes))
		for at := step; at < horizon; at += step {
			for _, nd := range nodes {
				if at <= upUntil[nd] {
					continue // still down from an earlier crash
				}
				if rng.Float64() >= pCrash {
					continue
				}
				down := rates.DownForMin +
					time.Duration(rng.Int63n(int64(rates.DownForMax-rates.DownForMin)))
				script = append(script,
					ChurnEvent{At: at, Kind: ChurnCrash, Nodes: []string{nd}},
					ChurnEvent{At: at + down, Kind: ChurnRejoin, Nodes: []string{nd}})
				upUntil[nd] = at + down
			}
		}
	}

	// Partition/heal cycles.
	if rates.PartitionPerMin > 0 && len(nodes) >= 4 {
		pPart := rates.PartitionPerMin * (float64(step) / float64(time.Minute))
		var healAt time.Duration
		for at := step; at < horizon; at += step {
			if at <= healAt {
				continue // the previous partition has not healed
			}
			if rng.Float64() >= pPart {
				continue
			}
			cut := len(nodes) / 4
			if cut == 0 {
				cut = 1
			}
			perm := rng.Perm(len(nodes))[:cut]
			side := make([]string, 0, cut)
			for _, i := range perm {
				side = append(side, nodes[i])
			}
			sort.Strings(side)
			script = append(script,
				ChurnEvent{At: at, Kind: ChurnPartition, Groups: [][]string{side}},
				ChurnEvent{At: at + rates.HealAfter, Kind: ChurnHeal})
			healAt = at + rates.HealAfter
		}
	}

	// Latency storms.
	if rates.StormPerMin > 0 {
		pStorm := rates.StormPerMin * (float64(step) / float64(time.Minute))
		var calmAt time.Duration
		for at := step; at < horizon; at += step {
			if at <= calmAt {
				continue // the previous storm is still running
			}
			if rng.Float64() >= pStorm {
				continue
			}
			script = append(script, ChurnEvent{
				At: at, Kind: ChurnLatencyStorm,
				Factor: rates.StormFactor, Dur: rates.StormFor,
			})
			calmAt = at + rates.StormFor
		}
	}

	script.Sort()
	return script
}

// Churner replays a ChurnScript against a Network in real time.
type Churner struct {
	net    *Network
	script ChurnScript

	mu      sync.Mutex
	applied []ChurnEvent // events actually executed, in order
	timers  []*time.Timer
	stopped bool
	done    chan struct{}
	pending sync.WaitGroup
}

// NewChurner prepares (but does not start) a churner. The script is
// copied and sorted.
func NewChurner(net *Network, script ChurnScript) *Churner {
	cp := append(ChurnScript(nil), script...)
	cp.Sort()
	return &Churner{net: net, script: cp, done: make(chan struct{})}
}

// Start schedules every scripted event relative to now. It returns
// immediately; events fire from timer goroutines.
func (c *Churner) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	for i := range c.script {
		ev := c.script[i]
		c.pending.Add(1)
		t := time.AfterFunc(ev.At, func() {
			defer c.pending.Done()
			c.apply(ev)
		})
		c.timers = append(c.timers, t)
	}
}

func (c *Churner) apply(ev ChurnEvent) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.applied = append(c.applied, ev)
	c.mu.Unlock()

	switch ev.Kind {
	case ChurnCrash:
		for _, nd := range ev.Nodes {
			c.net.SetDown(nd, true)
		}
	case ChurnRejoin:
		for _, nd := range ev.Nodes {
			c.net.SetDown(nd, false)
		}
	case ChurnPartition:
		c.net.Partition(ev.Groups...)
	case ChurnHeal:
		c.net.Heal()
	case ChurnLatencyStorm:
		f := ev.Factor
		if f <= 0 {
			f = 1
		}
		c.net.SetLatencyFactor(f)
		if ev.Dur > 0 {
			c.pending.Add(1)
			t := time.AfterFunc(ev.Dur, func() {
				defer c.pending.Done()
				c.mu.Lock()
				stopped := c.stopped
				c.mu.Unlock()
				if !stopped {
					c.net.SetLatencyFactor(1)
				}
			})
			c.mu.Lock()
			c.timers = append(c.timers, t)
			c.mu.Unlock()
		}
	}
}

// Stop cancels all pending events and waits for in-flight ones to
// settle. The network is left in whatever state the fired events put
// it in; callers wanting a clean slate should Heal/SetDown themselves.
func (c *Churner) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	timers := c.timers
	c.mu.Unlock()
	for _, t := range timers {
		if t.Stop() {
			c.pending.Done()
		}
	}
	c.pending.Wait()
	close(c.done)
}

// Applied returns the events executed so far, in firing order.
// Deterministic-replay tests compare this across runs.
func (c *Churner) Applied() []ChurnEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ChurnEvent(nil), c.applied...)
}
