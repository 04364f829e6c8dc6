package id

import (
	"math/big"
	"testing"
	"testing/quick"
)

func big2id(v *big.Int) ID {
	var id ID
	mod := new(big.Int).Lsh(big.NewInt(1), Bits)
	v = new(big.Int).Mod(v, mod)
	b := v.Bytes()
	copy(id[Bytes-len(b):], b)
	return id
}

func id2big(a ID) *big.Int {
	return new(big.Int).SetBytes(a[:])
}

func TestHashDeterministic(t *testing.T) {
	a := Hash([]byte("hello"))
	b := Hash([]byte("hello"))
	if a != b {
		t.Fatalf("Hash not deterministic: %v vs %v", a, b)
	}
	if a == Hash([]byte("world")) {
		t.Fatalf("distinct inputs collided")
	}
	if a != HashString("hello") {
		t.Fatalf("HashString disagrees with Hash")
	}
}

func TestHashPartsFraming(t *testing.T) {
	if HashParts("ab", "c") == HashParts("a", "bc") {
		t.Fatalf("HashParts framing is ambiguous")
	}
	if HashParts("ab") == HashParts("ab", "") {
		t.Fatalf("HashParts ignores empty trailing part")
	}
}

func TestFromUint64(t *testing.T) {
	a := FromUint64(0x1234)
	if got := id2big(a).Uint64(); got != 0x1234 {
		t.Fatalf("FromUint64 round trip: got %#x", got)
	}
}

func TestFromHex(t *testing.T) {
	a, err := FromHex("ff")
	if err != nil {
		t.Fatal(err)
	}
	if a != FromUint64(255) {
		t.Fatalf("FromHex(ff) = %v", a)
	}
	if _, err := FromHex("zz"); err == nil {
		t.Fatalf("FromHex accepted invalid hex")
	}
	if _, err := FromHex("00112233445566778899aabbccddeeff0011223344"); err == nil {
		t.Fatalf("FromHex accepted 21-byte string")
	}
	// Odd-length strings are padded.
	b, err := FromHex("f")
	if err != nil {
		t.Fatal(err)
	}
	if b != FromUint64(15) {
		t.Fatalf("FromHex(f) = %v", b)
	}
}

func TestCmp(t *testing.T) {
	a, b := FromUint64(1), FromUint64(2)
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Fatalf("Cmp broken")
	}
	if !a.Less(b) || b.Less(a) {
		t.Fatalf("Less broken")
	}
}

func TestAddSubAgainstBigInt(t *testing.T) {
	f := func(x, y uint64, hx, hy uint64) bool {
		// Build 160-bit values with interesting high bits.
		a := FromUint64(x).Add(FromUint64(hx).AddPow2(100))
		b := FromUint64(y).Add(FromUint64(hy).AddPow2(130))
		mod := new(big.Int).Lsh(big.NewInt(1), Bits)
		wantAdd := new(big.Int).Add(id2big(a), id2big(b))
		wantAdd.Mod(wantAdd, mod)
		if a.Add(b) != big2id(wantAdd) {
			return false
		}
		wantSub := new(big.Int).Sub(id2big(a), id2big(b))
		wantSub.Mod(wantSub, mod)
		return a.Sub(b) == big2id(wantSub)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubInverse(t *testing.T) {
	f := func(seed []byte, y uint64) bool {
		a := Hash(seed)
		b := FromUint64(y)
		return a.Add(b).Sub(b) == a && a.Sub(b).Add(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddPow2(t *testing.T) {
	a := FromUint64(0)
	for k := 0; k < Bits; k++ {
		want := new(big.Int).Lsh(big.NewInt(1), uint(k))
		if a.AddPow2(k) != big2id(want) {
			t.Fatalf("AddPow2(%d) wrong", k)
		}
	}
	// Wraparound: max + 1 == 0.
	var max ID
	for i := range max {
		max[i] = 0xff
	}
	if got := max.AddPow2(0); !got.IsZero() {
		t.Fatalf("max+1 = %v, want 0", got)
	}
}

func TestAddPow2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("AddPow2(160) did not panic")
		}
	}()
	FromUint64(0).AddPow2(Bits)
}

func TestBetween(t *testing.T) {
	a, b, c := FromUint64(10), FromUint64(20), FromUint64(30)
	if !Between(b, a, c) {
		t.Fatalf("20 not in (10,30)")
	}
	if Between(a, a, c) || Between(c, a, c) {
		t.Fatalf("interval endpoints included")
	}
	// Wrapping interval (30, 10): includes 35 and 5 but not 20.
	if !Between(FromUint64(35), c, a) || !Between(FromUint64(5), c, a) {
		t.Fatalf("wrap interval excluded members")
	}
	if Between(b, c, a) {
		t.Fatalf("wrap interval included 20")
	}
	// a == b: whole ring minus the endpoint.
	if !Between(b, a, a) {
		t.Fatalf("full-ring interval excluded other point")
	}
	if Between(a, a, a) {
		t.Fatalf("full-ring interval included endpoint")
	}
}

func TestBetweenRightIncl(t *testing.T) {
	a, c := FromUint64(10), FromUint64(30)
	if !BetweenRightIncl(c, a, c) {
		t.Fatalf("right endpoint excluded")
	}
	if BetweenRightIncl(a, a, c) {
		t.Fatalf("left endpoint included")
	}
}

func TestDistance(t *testing.T) {
	a, b := FromUint64(10), FromUint64(30)
	if a.Distance(b) != FromUint64(20) {
		t.Fatalf("forward distance wrong")
	}
	// Distance wraps: from 30 forward to 10 is 2^160 - 20.
	d := b.Distance(a)
	if d.Add(FromUint64(20)) != (ID{}) {
		t.Fatalf("wrapped distance wrong")
	}
}

func TestStringShort(t *testing.T) {
	a := FromUint64(0xab)
	s := a.String()
	if len(s) != 40 {
		t.Fatalf("String length %d", len(s))
	}
	if got, err := FromHex(s); err != nil || got != a {
		t.Fatalf("String/FromHex round trip failed")
	}
	if len(a.Short()) != 8 {
		t.Fatalf("Short length %d", len(a.Short()))
	}
}

func TestIsZero(t *testing.T) {
	if !(ID{}).IsZero() || FromUint64(1).IsZero() {
		t.Fatalf("IsZero broken")
	}
}
