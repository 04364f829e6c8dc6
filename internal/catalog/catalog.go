// Package catalog tracks the relations a PIER node knows how to plan
// against: each table's schema, the DHT namespace its tuples live in,
// and the soft-state lifetime its publishers use. PIER has no global
// persistent catalog — applications declare the same tables on the
// nodes that use them, and disseminated query plans carry their
// schemas with them — so this catalog is purely local state.
package catalog

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/tuple"
)

// Table describes one relation.
type Table struct {
	// Schema names the columns; Schema.Key determines the resource
	// ID under which each tuple is published.
	Schema *tuple.Schema
	// Namespace is the DHT namespace holding the tuples; by
	// convention "table:<name>".
	Namespace string
	// TTL is the default soft-state lifetime publishers use.
	TTL time.Duration
}

// StatsSource records where a table's statistics came from, in
// ascending precedence order: the optimizer resolves declared >
// measured-fresh > coarse defaults.
type StatsSource uint8

const (
	// StatsDefault marks the absence of statistics: the optimizer
	// falls back to its coarse defaults.
	StatsDefault StatsSource = iota
	// StatsMeasured stats came from an ANALYZE: this node's own, or
	// the one another node broadcast when its query ended eos.
	StatsMeasured
	// StatsDeclared stats were set by hand (\stats / SetTableStats).
	StatsDeclared
)

func (s StatsSource) String() string {
	switch s {
	case StatsMeasured:
		return "measured"
	case StatsDeclared:
		return "declared"
	}
	return "default"
}

// TableStats are the planner's per-table estimates. PIER has no
// global statistics service — stats are declared locally (like the
// schemas themselves) or measured by the distributed ANALYZE, whose
// coordinator broadcasts what it installed; the cost-based optimizer
// treats them as hints, falling back to coarse defaults when absent.
type TableStats struct {
	// Rows estimates the network-wide cardinality (0 = unknown).
	Rows int64
	// Distinct estimates distinct values per column, keyed by the
	// base (unqualified) column name.
	Distinct map[string]int64
	// Sample is the merged bottom-k row sample from the last ANALYZE
	// (nil for declared stats). The optimizer evaluates pushed-down
	// filters against it for measured selectivities instead of the
	// textbook constants.
	Sample *stats.Sample
	// Source is the stats' provenance (StatsDeclared for SetStats).
	Source StatsSource
	// MeasuredAt stamps measured stats (zero for declared).
	MeasuredAt time.Time
	// TTL is the soft-state lifetime of measured stats;
	// past it they no longer count (0 = never expires).
	TTL time.Duration
}

// Expired reports whether soft-state stats are past their lifetime
// (declared stats never expire).
func (s TableStats) Expired(now time.Time) bool {
	return s.Source != StatsDeclared && s.TTL > 0 && now.After(s.MeasuredAt.Add(s.TTL))
}

// clone deep-copies the stats so callers never share the map or
// sample.
func (s TableStats) clone() TableStats {
	out := s
	if s.Distinct != nil {
		out.Distinct = make(map[string]int64, len(s.Distinct))
		for k, v := range s.Distinct {
			out.Distinct[k] = v
		}
	}
	if s.Sample != nil {
		out.Sample = s.Sample.Clone()
	}
	return out
}

// Catalog is a thread-safe table registry.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	// stats holds hand-declared statistics; measured holds the latest
	// live ANALYZE-measured entry. Declared always wins at
	// read time, so a measurement never silently overrides an
	// operator's explicit hint.
	stats    map[string]TableStats
	measured map[string]TableStats
	// epoch counts catalog mutations that can change plans: table
	// definitions/drops and statistics installs. Cached compiled plans
	// are keyed on it, so a bump invalidates them.
	epoch uint64
}

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:   make(map[string]*Table),
		stats:    make(map[string]TableStats),
		measured: make(map[string]TableStats),
	}
}

// Namespace returns the conventional DHT namespace for a table name.
func Namespace(table string) string { return "table:" + table }

// Define registers a table. Redefinition with an identical schema is
// idempotent; a conflicting redefinition errors.
func (c *Catalog) Define(schema *tuple.Schema, ttl time.Duration) (*Table, error) {
	if schema == nil || schema.Name == "" {
		return nil, fmt.Errorf("catalog: table needs a named schema")
	}
	if ttl <= 0 {
		ttl = time.Minute
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if existing, ok := c.tables[schema.Name]; ok {
		if !sameSchema(existing.Schema, schema) {
			return nil, fmt.Errorf("catalog: table %q already defined with a different schema", schema.Name)
		}
		return existing, nil
	}
	t := &Table{Schema: schema, Namespace: Namespace(schema.Name), TTL: ttl}
	c.tables[schema.Name] = t
	c.epoch++
	return t, nil
}

// Epoch returns a counter bumped by every plan-affecting catalog
// mutation (Define, Drop, SetStats, and InstallMeasured when it
// actually installs). Plan caches key entries on it: a compiled plan
// is valid only while the epoch it was built under is current.
func (c *Catalog) Epoch() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.epoch
}

// Lookup finds a table by name.
func (c *Catalog) Lookup(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	return t, ok
}

// normalizeDistinct validates every distinct key against the schema
// and rewrites it to the base (unqualified) column name, so
// `\stats t t.x=...` and measured stats agree on keys. Two keys
// collapsing onto the same column error rather than silently
// overwriting each other.
func normalizeDistinct(tbl *Table, name string, distinct map[string]int64) (map[string]int64, error) {
	if distinct == nil {
		return nil, nil
	}
	out := make(map[string]int64, len(distinct))
	for col, d := range distinct {
		idx := tbl.Schema.ColIndex(col)
		if idx < 0 {
			return nil, fmt.Errorf("catalog: stats for unknown column %s.%s", name, col)
		}
		base := tuple.BaseName(tbl.Schema.Columns[idx].Name)
		if _, dup := out[base]; dup {
			return nil, fmt.Errorf("catalog: duplicate stats for column %s.%s", name, base)
		}
		out[base] = d
	}
	return out, nil
}

// SetStats records hand-declared planner statistics for a defined
// table. Qualified column names ("t.x") are accepted and normalized
// to base names, so declared and measured stats share keys.
func (c *Catalog) SetStats(name string, stats TableStats) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	tbl, ok := c.tables[name]
	if !ok {
		return fmt.Errorf("catalog: stats for unknown table %q", name)
	}
	norm, err := normalizeDistinct(tbl, name, stats.Distinct)
	if err != nil {
		return err
	}
	stats = stats.clone()
	stats.Distinct = norm
	stats.Source = StatsDeclared
	stats.MeasuredAt = time.Time{}
	stats.TTL = 0
	c.stats[name] = stats
	c.epoch++
	return nil
}

// InstallMeasured records measured statistics, respecting soft-state
// precedence: an expired entry always yields; against a live entry
// only a strictly newer measurement wins, whichever node took it — a
// node's own old count must not outlive another node's fresh one. It
// reports whether stats took effect. The caller sets Source,
// MeasuredAt, and TTL. Declared stats live separately and always win
// at read time.
func (c *Catalog) InstallMeasured(name string, stats TableStats) (bool, error) {
	if stats.Source != StatsMeasured {
		return false, fmt.Errorf("catalog: InstallMeasured with source %v", stats.Source)
	}
	now := time.Now()
	if stats.Expired(now) {
		return false, nil // dead on arrival; nothing to install
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	tbl, ok := c.tables[name]
	if !ok {
		return false, fmt.Errorf("catalog: stats for unknown table %q", name)
	}
	norm, err := normalizeDistinct(tbl, name, stats.Distinct)
	if err != nil {
		return false, err
	}
	stats = stats.clone()
	stats.Distinct = norm
	if cur, ok := c.measured[name]; ok && !cur.Expired(now) && !stats.MeasuredAt.After(cur.MeasuredAt) {
		return false, nil
	}
	c.measured[name] = stats
	c.epoch++
	return true, nil
}

// Stats returns the effective statistics for a table — declared if
// set, else the live measured entry, else the zero value
// (Source StatsDefault), which the optimizer reads as "use coarse
// defaults".
func (c *Catalog) Stats(name string) TableStats {
	s, _, _ := c.StatsInfo(name)
	return s
}

// StatsInfo returns the effective statistics with their provenance
// and age (0 for declared or absent stats) — what EXPLAIN annotates
// scans with.
func (c *Catalog) StatsInfo(name string) (TableStats, StatsSource, time.Duration) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if s, ok := c.stats[name]; ok {
		return s.clone(), StatsDeclared, 0
	}
	now := time.Now()
	if m, ok := c.measured[name]; ok && !m.Expired(now) {
		return m.clone(), m.Source, now.Sub(m.MeasuredAt)
	}
	return TableStats{}, StatsDefault, 0
}

// Drop removes a table definition (local only).
func (c *Catalog) Drop(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		c.epoch++
	}
	delete(c.tables, name)
	delete(c.stats, name)
	delete(c.measured, name)
}

// Names lists defined tables in sorted order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func sameSchema(a, b *tuple.Schema) bool {
	if a.Name != b.Name || len(a.Columns) != len(b.Columns) || len(a.Key) != len(b.Key) {
		return false
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return false
		}
	}
	for i := range a.Key {
		if a.Key[i] != b.Key[i] {
			return false
		}
	}
	return true
}
