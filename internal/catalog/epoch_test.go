package catalog

import (
	"testing"
	"time"

	"repro/internal/tuple"
)

func epochSchema(name string) *tuple.Schema {
	return tuple.MustSchema(name, []tuple.Column{
		{Name: name + ".k", Type: tuple.TString},
		{Name: name + ".v", Type: tuple.TInt},
	}, name+".k")
}

func TestEpochBumpsOnPlanAffectingMutations(t *testing.T) {
	c := New()
	e0 := c.Epoch()

	if _, err := c.Define(epochSchema("t"), time.Minute); err != nil {
		t.Fatal(err)
	}
	e1 := c.Epoch()
	if e1 <= e0 {
		t.Fatalf("Define did not bump epoch: %d -> %d", e0, e1)
	}

	// Idempotent redefinition is not a mutation.
	if _, err := c.Define(epochSchema("t"), time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := c.Epoch(); got != e1 {
		t.Fatalf("idempotent Define bumped epoch: %d -> %d", e1, got)
	}

	if err := c.SetStats("t", TableStats{Rows: 100}); err != nil {
		t.Fatal(err)
	}
	e2 := c.Epoch()
	if e2 <= e1 {
		t.Fatalf("SetStats did not bump epoch: %d -> %d", e1, e2)
	}

	measuredAt := time.Now()
	if ok, err := c.InstallMeasured("t", TableStats{Rows: 200, Source: StatsMeasured, MeasuredAt: measuredAt, TTL: time.Minute}); err != nil || !ok {
		t.Fatalf("measured install: took effect %v, %v", ok, err)
	}
	e3 := c.Epoch()
	if e3 <= e2 {
		t.Fatalf("InstallMeasured did not bump epoch: %d -> %d", e2, e3)
	}

	// A measurement no newer than the live one installs nothing.
	if ok, err := c.InstallMeasured("t", TableStats{Rows: 300, Source: StatsMeasured, MeasuredAt: measuredAt, TTL: time.Minute}); err != nil || ok {
		t.Fatalf("stale install: took effect %v, %v", ok, err)
	}
	if got := c.Epoch(); got != e3 {
		t.Fatalf("no-install InstallMeasured bumped epoch: %d -> %d", e3, got)
	}

	c.Drop("t")
	e4 := c.Epoch()
	if e4 <= e3 {
		t.Fatalf("Drop did not bump epoch: %d -> %d", e3, e4)
	}

	// Dropping an unknown table is a no-op.
	c.Drop("absent")
	if got := c.Epoch(); got != e4 {
		t.Fatalf("no-op Drop bumped epoch: %d -> %d", e4, got)
	}
}
