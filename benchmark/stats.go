package main

import (
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"time"
)

// percentile is the p-th percentile (0..1) of xs by linear
// interpolation between closest ranks; 0 for an empty sample. The
// input is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is num/den, 0 when den is 0 (a layer that did nothing).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// answer is what the generator expects of one statement: the row count
// and an order-independent checksum of the rows as a pierd client sees
// them (JSON values).
type answer struct {
	rows int
	sum  uint64
}

// rowsAnswer digests a result in the shape encoding/json decodes it
// to: numbers are float64, everything else the benchmark uses is a
// string. Row hashes are added, so row order does not matter and a
// duplicated or missing row does.
func rowsAnswer(rows [][]interface{}) answer {
	var sum uint64
	var buf []byte
	for _, r := range rows {
		buf = buf[:0]
		for _, v := range r {
			switch x := v.(type) {
			case float64:
				buf = append(buf, 'f')
				buf = strconv.AppendFloat(buf, x, 'g', -1, 64)
			case string:
				buf = append(buf, 's')
				buf = append(buf, x...)
			case bool:
				buf = strconv.AppendBool(append(buf, 'b'), x)
			case nil:
				buf = append(buf, 'n')
			default:
				buf = append(buf, '?')
			}
			buf = append(buf, 0x1f)
		}
		h := fnv.New64a()
		h.Write(buf)
		sum += h.Sum64()
	}
	return answer{rows: len(rows), sum: sum}
}

// hashText is a short stable fingerprint of a text (plan, config).
func hashText(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return strconv.FormatUint(h.Sum64(), 16)
}
