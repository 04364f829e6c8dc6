// Package id implements the 160-bit identifier space of the overlay.
// Identifiers name both nodes and data items; the package provides the
// ring arithmetic used by Chord (clockwise intervals, powers of two
// offsets), plus SHA-1 hashing of arbitrary byte strings into the
// space.
package id

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Bits is the width of the identifier space.
const Bits = 160

// Bytes is the byte length of an identifier.
const Bytes = Bits / 8

// ID is a 160-bit identifier, stored big-endian: ID[0] is the most
// significant byte. The zero value is the identifier 0.
type ID [Bytes]byte

// Hash maps an arbitrary byte string onto the identifier space using
// SHA-1, as in Chord and consistent hashing generally.
func Hash(data []byte) ID {
	return ID(sha1.Sum(data))
}

// HashString is Hash for strings, avoiding a copy at call sites.
func HashString(s string) ID {
	h := sha1.New()
	h.Write([]byte(s))
	var id ID
	copy(id[:], h.Sum(nil))
	return id
}

// HashParts hashes the concatenation of parts with unambiguous
// length-prefixed framing, so ("ab","c") and ("a","bc") differ.
func HashParts(parts ...string) ID {
	h := sha1.New()
	var lenbuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenbuf[:], uint64(len(p)))
		h.Write(lenbuf[:])
		h.Write([]byte(p))
	}
	var id ID
	copy(id[:], h.Sum(nil))
	return id
}

// FromUint64 returns the identifier whose low 64 bits are v and whose
// high bits are zero. Useful in tests for readable ring positions.
func FromUint64(v uint64) ID {
	var id ID
	binary.BigEndian.PutUint64(id[Bytes-8:], v)
	return id
}

// FromHex parses a hex string of up to 40 characters into an ID,
// right-aligned (short strings denote small identifiers).
func FromHex(s string) (ID, error) {
	if len(s)%2 == 1 {
		s = "0" + s
	}
	raw, err := hex.DecodeString(s)
	if err != nil {
		return ID{}, fmt.Errorf("id: parsing hex %q: %w", s, err)
	}
	if len(raw) > Bytes {
		return ID{}, fmt.Errorf("id: hex string %q longer than %d bytes", s, Bytes)
	}
	var id ID
	copy(id[Bytes-len(raw):], raw)
	return id, nil
}

// String renders the identifier as 40 hex digits.
func (a ID) String() string {
	return hex.EncodeToString(a[:])
}

// Short renders the first 8 hex digits, for logs.
func (a ID) Short() string {
	return hex.EncodeToString(a[:4])
}

// IsZero reports whether a is the zero identifier.
func (a ID) IsZero() bool {
	return a == ID{}
}

// Cmp compares a and b as 160-bit unsigned integers, returning
// -1, 0, or +1.
func (a ID) Cmp(b ID) int {
	for i := 0; i < Bytes; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Less reports a < b in unsigned integer order.
func (a ID) Less(b ID) bool { return a.Cmp(b) < 0 }

// Add returns a+b modulo 2^160.
func (a ID) Add(b ID) ID {
	var out ID
	var carry uint16
	for i := Bytes - 1; i >= 0; i-- {
		s := uint16(a[i]) + uint16(b[i]) + carry
		out[i] = byte(s)
		carry = s >> 8
	}
	return out
}

// Sub returns a-b modulo 2^160.
func (a ID) Sub(b ID) ID {
	var out ID
	var borrow int16
	for i := Bytes - 1; i >= 0; i-- {
		d := int16(a[i]) - int16(b[i]) - borrow
		if d < 0 {
			d += 256
			borrow = 1
		} else {
			borrow = 0
		}
		out[i] = byte(d)
	}
	return out
}

// AddPow2 returns a + 2^k modulo 2^160. It panics if k >= Bits.
// Chord uses this to compute finger-table targets.
func (a ID) AddPow2(k int) ID {
	if k < 0 || k >= Bits {
		panic(fmt.Sprintf("id: AddPow2 exponent %d out of range", k))
	}
	var p ID
	p[Bytes-1-k/8] = 1 << (k % 8)
	return a.Add(p)
}

// Distance returns the clockwise ring distance from a to b, i.e. the
// number of steps forward from a to reach b, modulo 2^160.
func (a ID) Distance(b ID) ID {
	return b.Sub(a)
}

// Between reports whether x lies in the open interval (a, b) on the
// ring, walking clockwise from a to b. When a == b the interval is the
// whole ring minus {a}, matching Chord's conventions.
func Between(x, a, b ID) bool {
	if a.Cmp(b) < 0 {
		return a.Cmp(x) < 0 && x.Cmp(b) < 0
	}
	// Interval wraps through zero (or a == b: full ring).
	return a.Cmp(x) < 0 || x.Cmp(b) < 0
}

// BetweenRightIncl reports whether x lies in the half-open interval
// (a, b] on the ring. Chord's "is x my successor's responsibility"
// test.
func BetweenRightIncl(x, a, b ID) bool {
	if x == b {
		return true
	}
	return Between(x, a, b)
}
