// Package piertest builds ready-to-query PIER clusters over the
// simulated network for tests, examples, and the benchmark harness.
// It owns the fiddly parts — fast protocol timers, joining every node
// through a bootstrap, and waiting for the overlay to converge — so
// callers get a working testbed in one call, the way the paper's
// authors got PlanetLab.
package piertest

import (
	"context"
	"fmt"
	"time"

	"repro/internal/chord"
	"repro/internal/pier"
	"repro/internal/simnet"
)

// Options tune the cluster.
type Options struct {
	// N is the node count. Default 8.
	N int
	// Seed drives the simulated network's randomness. Default 1.
	Seed int64
	// NetCfg overrides the full simnet configuration (Seed wins for
	// the Seed field when both set).
	NetCfg *simnet.Config
	// NodeCfg overrides the node configuration. Default: fast
	// simulation timers.
	NodeCfg *pier.Config
}

// FastConfig returns the simulation-scale node configuration used
// throughout the tests and benchmarks.
func FastConfig() pier.Config {
	cfg := pier.Config{
		Chord: chord.Config{
			SuccessorListLen: 4,
			StabilizeEvery:   10 * time.Millisecond,
			FixFingersEvery:  2 * time.Millisecond,
			CheckPredEvery:   25 * time.Millisecond,
		},
		CombineHold:   15 * time.Millisecond,
		CollectorHold: 80 * time.Millisecond,
		Quiet:         250 * time.Millisecond,
		MaxQueryLife:  10 * time.Second,
	}
	cfg.DHT.SweepEvery = 100 * time.Millisecond
	cfg.DHT.RepublishEvery = 500 * time.Millisecond
	return cfg
}

// Cluster is a running simulated PIER deployment.
type Cluster struct {
	Net   *simnet.Network
	Nodes []*pier.Node
}

// New builds, joins, and converges a cluster.
func New(opts Options) (*Cluster, error) {
	if opts.N == 0 {
		opts.N = 8
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	netCfg := simnet.Config{}
	if opts.NetCfg != nil {
		netCfg = *opts.NetCfg
	}
	netCfg.Seed = opts.Seed
	nodeCfg := FastConfig()
	if opts.NodeCfg != nil {
		nodeCfg = *opts.NodeCfg
	}
	net := simnet.New(netCfg)
	c := &Cluster{Net: net}
	for i := 0; i < opts.N; i++ {
		ep, err := net.Endpoint(fmt.Sprintf("node%d", i))
		if err != nil {
			c.Close()
			return nil, err
		}
		nd, err := pier.NewNode(ep, nodeCfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Nodes = append(c.Nodes, nd)
	}
	for i := 1; i < opts.N; i++ {
		if err := c.Nodes[i].Join(context.Background(), c.Nodes[0].Addr()); err != nil {
			c.Close()
			return nil, fmt.Errorf("piertest: joining node %d: %w", i, err)
		}
	}
	if err := c.WaitConverged(60 * time.Second); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// WaitConverged blocks until the chord ring closes (see
// chord.WaitConverged).
func (c *Cluster) WaitConverged(timeout time.Duration) error {
	chords := make([]*chord.Node, len(c.Nodes))
	for i, nd := range c.Nodes {
		chords[i] = nd.Router()
	}
	if err := chord.WaitConverged(chords, timeout); err != nil {
		return fmt.Errorf("piertest: %w", err)
	}
	return nil
}

// Close stops every node and the network.
func (c *Cluster) Close() {
	for _, nd := range c.Nodes {
		nd.Stop()
	}
	c.Net.Close()
}
