package physical

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/tuple"
)

// fnvMod is the naive routing partition: FNV-1a reduced by its low
// bits, the same bits partHash(key, 0) % hybridFanout reads.
func fnvMod(key []byte, parts int) int {
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(parts))
}

// collectorSpread routes keys into parts routing partitions and
// reports, over all of them, the fewest level-0 HybridJoin partitions
// the keys of one routing partition occupy and the worst max/mean of
// their counts over the occupied-or-not 16.
func collectorSpread(keys [][]byte, parts int, route func([]byte, int) int) (minOccupied int, worstSkew float64) {
	counts := make([][hybridFanout]int, parts)
	totals := make([]int, parts)
	for _, k := range keys {
		p := route(k, parts)
		counts[p][partHash(k, 0)%hybridFanout]++
		totals[p]++
	}
	minOccupied = hybridFanout
	for p := range counts {
		if totals[p] == 0 {
			continue
		}
		occupied, max := 0, 0
		for _, c := range counts[p] {
			if c > 0 {
				occupied++
			}
			if c > max {
				max = c
			}
		}
		if occupied < minOccupied {
			minOccupied = occupied
		}
		if skew := float64(max) * hybridFanout / float64(totals[p]); skew > worstSkew {
			worstSkew = skew
		}
	}
	return minOccupied, worstSkew
}

// TestRehashPartitionIndependentOfPartHash pins the property stacked
// partitioning needs (Jahangiri, Carey & Freytag): the tuples of any
// one routing partition still spread over all 16 level-0 partitions of
// the collector's HybridJoin, max/mean ≤ 2 — for the benchmark's key
// shape (canonical one-int keys) and for random byte keys. The key
// counts give every (routing partition, level-0 partition) cell ≈ 64
// keys, so the bound is far from sampling noise. The naive hash must
// fail the same check, or the check proves nothing.
func TestRehashPartitionIndependentOfPartHash(t *testing.T) {
	const parts = 64
	const n = parts * hybridFanout * 64
	ints := make([][]byte, n)
	for i := range ints {
		ints[i] = tuple.Tuple{tuple.Int(int64(i))}.Bytes()
	}
	rng := rand.New(rand.NewSource(17))
	random := make([][]byte, n)
	for i := range random {
		random[i] = make([]byte, 1+rng.Intn(24))
		rng.Read(random[i])
	}
	for _, tc := range []struct {
		name string
		keys [][]byte
	}{{"int-keys", ints}, {"random-keys", random}} {
		occupied, skew := collectorSpread(tc.keys, parts, RehashPartition)
		if occupied != hybridFanout || skew > 2 {
			t.Errorf("%s: a routing partition reaches %d of %d level-0 partitions, max/mean %.2f (want all, ≤ 2)",
				tc.name, occupied, hybridFanout, skew)
		}
	}
	// The benchmark's 1000 uids under the naive hash: the collapse the
	// issue measured.
	if occupied, _ := collectorSpread(ints[:1000], parts, fnvMod); occupied > 4 {
		t.Errorf("fnv32a %% %d reaches %d level-0 partitions per routing partition; expected the collapse (≤ 4)", parts, occupied)
	}
	// Routing partitions themselves stay balanced.
	var perPart [parts]int
	for _, k := range ints {
		perPart[RehashPartition(k, parts)]++
	}
	for p, c := range perPart {
		if c*parts > 2*n || c*parts*2 < n {
			t.Errorf("routing partition %d holds %d of %d keys (mean %d)", p, c, n, n/parts)
		}
	}
}
