// Package topology implements the paper's network-topology analysis
// application: a directed link table kept in the local partition of
// whichever node observed each link, and multi-hop reachability over
// it as one WITH RECURSIVE statement through pier, so an answer says
// how it ended (Reason, Coverage) like any other query.
package topology

import (
	"context"
	"strings"
	"time"

	"repro/internal/pier"
	"repro/internal/tuple"
)

// LinkSchema is the directed link table (src, dst).
var LinkSchema = tuple.MustSchema("link", []tuple.Column{
	{Name: "src", Type: tuple.TString},
	{Name: "dst", Type: tuple.TString},
}, "src", "dst")

// Define declares the link table on node; links expire ttl after they
// were last published.
func Define(node *pier.Node, ttl time.Duration) error {
	return node.DefineTable(LinkSchema, ttl)
}

// PublishLink records a directed link in node's local partition.
func PublishLink(node *pier.Node, src, dst string) error {
	return node.PublishLocal("link", tuple.Tuple{tuple.String(src), tuple.String(dst)})
}

// Reachable computes every vertex reachable from `from` in one or more
// hops: one dst row per vertex, in order, with the query's Reason and
// Coverage. The seed predicate sits in the base; the step carries src
// through unchanged, so this equals the full closure filtered by src.
func Reachable(ctx context.Context, node *pier.Node, from string) (*pier.Result, error) {
	return node.Query(ctx, `WITH RECURSIVE reach AS (
		SELECT src, dst FROM link WHERE src = '`+strings.ReplaceAll(from, "'", "''")+`'
		UNION
		SELECT reach.src, l.dst FROM link l JOIN reach ON reach.dst = l.src
	) SELECT DISTINCT dst FROM reach ORDER BY dst`)
}
