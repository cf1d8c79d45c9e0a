package obs

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// AppendEvent appends e's JSON encoding to dst. The bytes are exactly
// what json.Marshal(e) returns — fields in the order t, kind, f, s; empty
// or nil maps omitted; map keys in byte order; numbers in the ES6 form
// encoding/json uses; strings with its HTML-safe escaping — but without
// reflection, and without allocating beyond dst's growth for maps of up
// to 32 keys. It is the one encoder for Events: JSONLSink writes its
// lines with it, and orpd encodes each job event once, at append.
//
// A NaN or ±Inf value is unrepresentable in JSON. AppendEvent then
// returns dst unchanged and a *json.UnsupportedValueError with the
// message json.Marshal gives for the same event.
func AppendEvent(dst []byte, e Event) ([]byte, error) {
	n := len(dst)
	var err error
	dst = append(dst, `{"t":`...)
	if dst, err = appendNumber(dst, e.T); err != nil {
		return dst[:n], err
	}
	dst = append(dst, `,"kind":`...)
	dst = appendString(dst, e.Kind)
	if len(e.F) > 0 {
		dst = append(dst, `,"f":{`...)
		var buf [32]field[float64]
		for i, kv := range sortedFields(buf[:0], e.F) {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, kv.k)
			dst = append(dst, ':')
			if dst, err = appendNumber(dst, kv.v); err != nil {
				return dst[:n], err
			}
		}
		dst = append(dst, '}')
	}
	if len(e.S) > 0 {
		dst = append(dst, `,"s":{`...)
		var buf [32]field[string]
		for i, kv := range sortedFields(buf[:0], e.S) {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, kv.k)
			dst = append(dst, ':')
			dst = appendString(dst, kv.v)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

type field[V any] struct {
	k string
	v V
}

// sortedFields appends m's entries to dst in key order.
func sortedFields[V any](dst []field[V], m map[string]V) []field[V] {
	for k, v := range m {
		dst = append(dst, field[V]{k, v})
	}
	slices.SortFunc(dst, func(a, b field[V]) int { return strings.Compare(a.k, b.k) })
	return dst
}

// appendNumber is encoding/json's float64 encoder: shortest round-trip
// digits, exponent form only below 1e-6 and from 1e21 on, and a one-digit
// negative exponent written without its leading zero (1e-7, not 1e-07).
func appendNumber(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 && (f != 0 || !math.Signbit(f)) {
		// An integer well inside float64's exact range, not -0: its
		// shortest form is its digits. Counts, IDs and flags take this.
		return strconv.AppendInt(dst, int64(f), 10), nil
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes a JSON string holds unescaped.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// appendString is encoding/json's HTML-safe string encoder: quotes,
// backslashes, control bytes, <, > and & are escaped, invalid UTF-8
// becomes \ufffd, and U+2028/U+2029 are escaped for JSONP safety.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
