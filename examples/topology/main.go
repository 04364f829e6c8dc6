// Command topology demonstrates the paper's recursive network-mapping
// application: a directed link table distributed across nodes'
// partitions, queried for multi-hop reachability as one WITH RECURSIVE
// statement, each answer with how it ended.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/piertest"
	"repro/internal/topology"
)

func main() {
	log.SetFlags(0)
	const n = 10
	fmt.Printf("== PIER topology mapping: %d nodes ==\n\n", n)
	cluster, err := piertest.New(piertest.Options{N: n, Seed: 99})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	for _, nd := range cluster.Nodes {
		if err := topology.Define(nd, 30*time.Second); err != nil {
			log.Fatal(err)
		}
	}

	// An AS-like topology: a core triangle, two stub chains, and an
	// island; each edge observed by (stored at) a different node.
	edges := [][2]string{
		{"core1", "core2"}, {"core2", "core3"}, {"core3", "core1"},
		{"core1", "edge1"}, {"edge1", "leaf1"}, {"leaf1", "leaf2"},
		{"core2", "edge2"}, {"edge2", "leaf3"},
		{"island1", "island2"},
	}
	for i, e := range edges {
		if err := topology.PublishLink(cluster.Nodes[i%n], e[0], e[1]); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("node%d observes link %s -> %s\n", i%n, e[0], e[1])
	}
	fmt.Println()

	ctx := context.Background()
	for _, src := range []string{"core1", "edge2", "island1"} {
		res, err := topology.Reachable(ctx, cluster.Nodes[0], src)
		if err != nil {
			log.Fatal(err)
		}
		var reach []string
		for _, r := range res.Rows {
			reach = append(reach, r[0].S)
		}
		fmt.Printf("reachable from %-8s %v (%s, coverage %.0f%%)\n", src+":", reach, res.Reason, res.Coverage*100)
	}
}
