package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/id"
	"repro/internal/piertest"
	"repro/internal/tuple"
)

// boxedRows is how the server rendered rows before it wrote them from
// the tuples: one []interface{} per row and a boxed value per column,
// marshalled by encoding/json. The reference the encoder is held to.
func boxedRows(rows []tuple.Tuple) [][]interface{} {
	out := make([][]interface{}, len(rows))
	for i, r := range rows {
		row := make([]interface{}, len(r))
		for j, v := range r {
			switch v.Kind {
			case tuple.TBool:
				row[j] = v.B
			case tuple.TInt:
				row[j] = v.I
			case tuple.TFloat:
				row[j] = v.F
			case tuple.TString:
				row[j] = v.S
			case tuple.TBytes:
				row[j] = base64.StdEncoding.EncodeToString(v.AsBytes())
			case tuple.TTime:
				row[j] = v.AsTime().Format(time.RFC3339Nano)
			case tuple.TID:
				row[j] = v.AsID().String()
			}
		}
		out[i] = row
	}
	return out
}

// randomValue draws one value of every kind the engine has, leaning on
// the cases an encoder gets wrong: -0, the %f/%e cutoffs, HTML
// characters, control bytes, invalid UTF-8 and the JS line separators.
func randomValue(rng *rand.Rand) tuple.Value {
	floats := []float64{0, math.Copysign(0, -1), 1e21, 1e-7, 1e20, 1e-6, 9.999999e-7, 123.456,
		-1.5e300, 5e-324, math.MaxFloat64, 0.1, -2.5e-10, 1 << 53}
	strs := []string{"", "<>&", "a\x00b\x01\x1f\x7f", "\xff\xfe bad", "\u2028\u2029", "tab\t nl\n cr\r bs\b ff\f",
		`quote " back \`, "日本語", "\xed\xa0\x80", "ok"}
	switch rng.Intn(9) {
	case 0:
		return tuple.Bool(rng.Intn(2) == 0)
	case 1:
		return tuple.Int(rng.Int63() - rng.Int63())
	case 2:
		if rng.Intn(2) == 0 {
			return tuple.Float(floats[rng.Intn(len(floats))])
		}
		return tuple.Float(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30)))
	case 3:
		return tuple.Null()
	case 4:
		return tuple.String(strs[rng.Intn(len(strs))])
	case 5:
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return tuple.String(string(b)) // arbitrary bytes, mostly invalid UTF-8
	case 6:
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return tuple.Bytes(b)
	case 7:
		if rng.Intn(4) == 0 {
			return tuple.Time(time.Time{})
		}
		return tuple.Time(time.Unix(rng.Int63n(4e9), rng.Int63n(1e9)))
	default:
		var v id.ID
		rng.Read(v[:])
		return tuple.IDVal(v)
	}
}

// TestRowsEncodeAsEncodingJSON: for random rows of every value kind, a
// response or window event written from the tuples decodes to exactly
// what encoding/json's rendering of the boxed rows decodes to, and the
// rows array is the bytes encoding/json writes for them.
func TestRowsEncodeAsEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		rows := make([]tuple.Tuple, rng.Intn(6))
		for i := range rows {
			rows[i] = make(tuple.Tuple, 1+rng.Intn(8))
			for j := range rows[i] {
				rows[i][j] = randomValue(rng)
			}
		}
		// The rows array itself is byte for byte encoding/json's.
		if len(rows) > 0 {
			arr, err := appendRows(nil, rows)
			if err != nil {
				t.Fatal(err)
			}
			if ref, _ := json.Marshal(boxedRows(rows)); !bytes.Equal(arr, ref) {
				t.Fatalf("rows %v:\n got %s\nwant %s", rows, arr, ref)
			}
		}
		resp := Response{ID: uint64(trial), OK: true, Columns: []string{"a", "b"}, Reason: "eos", Coverage: 1, rows: rows}
		line, err := appendLine(nil, resp, rows)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(line, []byte("\n")) || bytes.Count(line, []byte("\n")) != 1 {
			t.Fatalf("not one line: %q", line)
		}
		ref := resp
		ref.Rows = boxedRows(rows)
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		var got, exp Response
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("%v: %s", err, line)
		}
		if err := json.Unmarshal(want, &exp); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("rows %v:\n got %s\nwant %s", rows, line, want)
		}

		ev := Event{Event: "window", Sub: 3, Seq: uint64(trial), rows: rows}
		line, err = appendLine(nil, ev, rows)
		if err != nil {
			t.Fatal(err)
		}
		evRef := ev
		evRef.Rows = boxedRows(rows)
		want, _ = json.Marshal(evRef)
		var gotEv, expEv Event
		if json.Unmarshal(line, &gotEv) != nil || json.Unmarshal(want, &expEv) != nil || !reflect.DeepEqual(gotEv, expEv) {
			t.Fatalf("event rows %v:\n got %s\nwant %s", rows, line, want)
		}
	}
}

// TestNonFiniteFloatAnswersWithError: v * v over v = 1e300 is +Inf,
// which JSON cannot carry. The response used to fail to marshal and was
// never written, so the client waited forever; it must come back as
// ok:false with the request's id and an error naming the row and
// column, and the connection must keep serving.
func TestNonFiniteFloatAnswersWithError(t *testing.T) {
	c, err := piertest.New(piertest.Options{N: 2, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	schema := tuple.MustSchema("f", []tuple.Column{{Name: "k", Type: tuple.TInt}, {Name: "v", Type: tuple.TFloat}}, "k")
	for _, nd := range c.Nodes {
		if err := nd.DefineTable(schema, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Nodes[1].PublishLocal("f", tuple.Tuple{tuple.Int(1), tuple.Float(1e300)}); err != nil {
		t.Fatal(err)
	}
	svc := engine.New(c.Nodes[0], engine.Config{})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, svc)
	defer srv.Close()
	cl := dial(t, srv.Addr().String())

	if err := cl.enc.Encode(Request{ID: 42, Op: "query", SQL: "SELECT k, v * v FROM f"}); err != nil {
		t.Fatal(err)
	}
	select {
	case resp := <-cl.resps:
		if resp.ID != 42 || resp.OK || !strings.Contains(resp.Error, "row 0 column 1") || !strings.Contains(resp.Error, "+Inf") {
			t.Fatalf("response %+v, want ok:false for id 42 naming row 0 column 1 and +Inf", resp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no response within 10s")
	}
	if resp := cl.must(Request{Op: "query", SQL: "SELECT k, v FROM f"}); len(resp.Rows) != 1 || resp.Rows[0][1] != 1e300 {
		t.Fatalf("after the failed encode, rows %v", resp.Rows)
	}
}
