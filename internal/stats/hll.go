// HyperLogLog distinct counting. Every node sketches the distinct
// values of each column of its local DHT partition; sketches merge by
// register-wise max, so the network-wide distinct count assembles
// from per-partition passes without ever shipping the values
// themselves — the in-network aggregation idea applied to statistics.
package stats

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/wire"
)

const (
	// hllP is the register-index width: 2^hllP registers of one byte
	// each, for a ~2.3% standard error at 2 KB per column sketch.
	hllP = 11
	hllM = 1 << hllP
)

// hllAlpha is the bias-correction constant for hllM registers.
var hllAlpha = 0.7213 / (1 + 1.079/float64(hllM))

// HLL is a fixed-size HyperLogLog sketch. The zero value is not
// usable; create with NewHLL.
type HLL struct {
	regs []byte
}

// NewHLL creates an empty sketch.
func NewHLL() *HLL { return &HLL{regs: make([]byte, hllM)} }

// AddHash inserts a pre-hashed value.
func (h *HLL) AddHash(x uint64) {
	idx := x >> (64 - hllP)
	// Rank of the first set bit in the remaining 64-hllP bits (the
	// trailing 1 guarantees termination at the register width).
	rho := uint8(bits.LeadingZeros64(x<<hllP|1<<(hllP-1))) + 1
	if rho > h.regs[idx] {
		h.regs[idx] = rho
	}
}

// Add inserts a value by its canonical byte encoding.
func (h *HLL) Add(b []byte) { h.AddHash(wire.Hash64(b)) }

// Estimate returns the distinct-count estimate, with the linear
// counting small-range correction.
func (h *HLL) Estimate() int64 {
	sum := 0.0
	zeros := 0
	for _, r := range h.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	est := hllAlpha * hllM * hllM / sum
	if est <= 2.5*hllM && zeros > 0 {
		est = hllM * math.Log(float64(hllM)/float64(zeros))
	}
	return int64(est + 0.5)
}

// Merge folds o in (register-wise max) — commutative, associative,
// and idempotent, so merge order never changes the encoded bytes.
func (h *HLL) Merge(o *HLL) {
	for i, r := range o.regs {
		if r > h.regs[i] {
			h.regs[i] = r
		}
	}
}

// hllSparseMax is the register count below which Encode writes only
// the set registers, three bytes each: the sketch of a small partition
// is then bytes, not hllM, and a wide table's sketch still fits a
// datagram when ANALYZE ships it as an aggregate state.
const hllSparseMax = hllM / 3

// Encode appends the sketch to w: the precision, the count of set
// registers, then either those registers as (index, rank) pairs in
// index order or, past hllSparseMax, every register.
func (h *HLL) Encode(w *wire.Writer) {
	w.Byte(hllP)
	set := 0
	for _, r := range h.regs {
		if r != 0 {
			set++
		}
	}
	w.Uvarint(uint64(set))
	if set >= hllSparseMax {
		w.Raw(h.regs)
		return
	}
	for i, r := range h.regs {
		if r != 0 {
			w.Uvarint(uint64(i))
			w.Byte(r)
		}
	}
}

// DecodeHLL reads a sketch written by Encode.
func DecodeHLL(r *wire.Reader) (*HLL, error) {
	if p := r.Byte(); p != hllP {
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("stats: HLL precision %d, want %d", p, hllP)
	}
	set := r.Uvarint()
	h := NewHLL()
	if set >= hllSparseMax {
		if set > hllM {
			return nil, fmt.Errorf("stats: HLL with %d set registers", set)
		}
		copy(h.regs, r.Raw(hllM))
		return h, r.Err()
	}
	prev := -1
	for i := uint64(0); i < set; i++ {
		idx, rank := r.Uvarint(), r.Byte()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if idx >= hllM || int(idx) <= prev || rank == 0 {
			return nil, fmt.Errorf("stats: sparse HLL register %d (rank %d) after %d", idx, rank, prev)
		}
		h.regs[idx] = rank
		prev = int(idx)
	}
	return h, nil
}
