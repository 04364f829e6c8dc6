package piertest

import (
	"context"
	"testing"
	"time"

	"repro/internal/tuple"
)

func TestClusterBuildsAndQueries(t *testing.T) {
	c, err := New(Options{N: 4, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if len(c.Nodes) != 4 {
		t.Fatalf("%d nodes", len(c.Nodes))
	}
	schema := tuple.MustSchema("t", []tuple.Column{{Name: "v", Type: tuple.TInt}})
	for _, nd := range c.Nodes {
		if err := nd.DefineTable(schema, time.Minute); err != nil {
			t.Fatal(err)
		}
		nd.PublishLocal("t", tuple.Tuple{tuple.Int(1)})
	}
	res, err := c.Nodes[0].Query(context.Background(), "SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 4 {
		t.Fatalf("count %v", res.Rows)
	}
}

func TestClusterDefaults(t *testing.T) {
	c, err := New(Options{Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if len(c.Nodes) != 8 {
		t.Fatalf("default N: %d", len(c.Nodes))
	}
}

func TestCloseIsSafeTwice(t *testing.T) {
	c, err := New(Options{N: 2, Seed: 64})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close()
}
