package server

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/tuple"
)

// The server writes result rows as JSON straight from the tuples: no
// []interface{} per row, no boxed value per column. What a client
// decodes is what encoding/json made of the boxed form — bool, number,
// string (bytes as base64, times as RFC 3339, ids as hex) or null — and
// a float with no JSON form (NaN, ±Inf) is an error naming its row and
// column, not a silently dropped line.

// appendLine appends one protocol line: head marshalled by
// encoding/json with rows, when there are any, spliced in as its
// "rows" field (head's own Rows field is left empty), then a newline.
// Every head has fields of its own, so the splice follows a comma.
func appendLine(buf []byte, head interface{}, rows []tuple.Tuple) ([]byte, error) {
	b, err := json.Marshal(head)
	if err != nil {
		return buf, err
	}
	if len(rows) == 0 {
		return append(append(buf, b...), '\n'), nil
	}
	buf = append(buf, b[:len(b)-1]...) // up to the closing brace
	buf = append(buf, `,"rows":`...)
	if buf, err = appendRows(buf, rows); err != nil {
		return buf, err
	}
	return append(buf, '}', '\n'), nil
}

// appendRows appends rows as a JSON array of arrays.
func appendRows(buf []byte, rows []tuple.Tuple) ([]byte, error) {
	buf = append(buf, '[')
	for i, r := range rows {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for j, v := range r {
			if j > 0 {
				buf = append(buf, ',')
			}
			var err error
			if buf, err = appendValue(buf, v); err != nil {
				return buf, fmt.Errorf("row %d column %d: %w", i, j, err)
			}
		}
		buf = append(buf, ']')
	}
	return append(buf, ']'), nil
}

// appendValue appends one value as encoding/json writes its boxed form.
func appendValue(buf []byte, v tuple.Value) ([]byte, error) {
	switch v.Kind {
	case tuple.TBool:
		return strconv.AppendBool(buf, v.B), nil
	case tuple.TInt:
		return strconv.AppendInt(buf, v.I, 10), nil
	case tuple.TFloat:
		return appendFloat(buf, v.F)
	case tuple.TString:
		return appendString(buf, v.S), nil
	case tuple.TBytes:
		buf = append(buf, '"')
		buf = base64.StdEncoding.AppendEncode(buf, []byte(v.S))
		return append(buf, '"'), nil
	case tuple.TTime:
		buf = append(buf, '"')
		buf = v.AsTime().AppendFormat(buf, time.RFC3339Nano)
		return append(buf, '"'), nil
	case tuple.TID:
		return appendString(buf, v.AsID().String()), nil
	default:
		return append(buf, "null"...), nil
	}
}

// appendFloat is encoding/json's float64 form: ES6 number-to-string,
// %f between 1e-6 and 1e21 and %e (exponent unpadded) outside.
func appendFloat(buf []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return buf, fmt.Errorf("float %s has no JSON encoding", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf, nil
}

const hexDigits = "0123456789abcdef"

// appendString is encoding/json's string form with HTML escaping:
// quotes, backslashes, control bytes and <, >, & escaped, invalid
// UTF-8 replaced by U+FFFD, U+2028 and U+2029 escaped.
func appendString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '"', '\\':
				buf = append(buf, '\\', b)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// linePool recycles line buffers: a join answer is a few hundred KB.
var linePool = sync.Pool{New: func() interface{} { return new([]byte) }}
