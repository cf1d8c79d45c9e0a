package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// checkAppendEvent compares AppendEvent with json.Marshal on e: equal
// bytes when Marshal succeeds, an error (and dst untouched) when it
// fails.
func checkAppendEvent(t *testing.T, e Event) {
	t.Helper()
	want, werr := json.Marshal(e)
	prefix := []byte("prefix")
	got, gerr := AppendEvent(append([]byte(nil), prefix...), e)
	if werr != nil {
		if gerr == nil {
			t.Fatalf("%+v: json.Marshal fails (%v) but AppendEvent gave %q", e, werr, got)
		}
		if gerr.Error() != werr.Error() {
			t.Fatalf("%+v: error %q, json.Marshal says %q", e, gerr, werr)
		}
		if !bytes.Equal(got, prefix) {
			t.Fatalf("%+v: failed append left %q, want dst unchanged", e, got)
		}
		return
	}
	if gerr != nil {
		t.Fatalf("%+v: AppendEvent: %v", e, gerr)
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%+v:\n got %s\nwant %s", e, got[len(prefix):], want)
	}
}

func TestAppendEventMatchesMarshal(t *testing.T) {
	var many = map[string]float64{}
	for i := 0; i < 40; i++ { // past the stack field buffer
		many[string(rune('A'+i))+"k"] = float64(i) / 3
	}
	cases := []Event{
		{},
		{Kind: KindSpan},
		{T: 1.5, Kind: "x", F: map[string]float64{}, S: map[string]string{}}, // empty maps omitted
		{T: -0.0, Kind: "negzero", F: map[string]float64{"z": math.Copysign(0, -1)}},
		{Kind: "cutoffs", F: map[string]float64{
			"a": 1e-6, "b": 9.999999999999999e-7, "c": 1e21, "d": 9.999999999999999e20,
			"e": 1e-7, "f": -1e-7, "g": 1.5e-10, "h": 1e100, "i": -1e21, "j": math.SmallestNonzeroFloat64,
			"k": math.MaxFloat64, "l": 123456789.125, "m": 0.1 + 0.2,
		}},
		{Kind: "integers", F: map[string]float64{
			"a": 3, "b": -42, "c": 1e15 - 1, "d": -(1e15 - 1), "e": 1e15, "f": 1 << 53, "g": 1<<53 + 2,
			"h": 1e20, "i": 123456789012345680000, "j": -1, "k": 0,
		}},
		{Kind: "<html> & \"quotes\" \\ \b\f\n\r\t\x00\x1f\x7f", S: map[string]string{
			"<k>": "a&b", "ü": "日本語", "bad": "\xff\xfe", "sep": "\u2028\u2029", "": "",
		}},
		{Kind: "many", F: many},
		Header(),
	}
	for _, e := range cases {
		checkAppendEvent(t, e)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkAppendEvent(t, Event{T: bad, Kind: "x"})
		checkAppendEvent(t, Event{Kind: "x", F: map[string]float64{"a": 1, "b": bad}})
	}
}

func TestAppendEventAllocs(t *testing.T) {
	e := Event{T: 0.25, Kind: KindSpan,
		F: map[string]float64{"id": 3, "parent": 1, "start": 0.001, "dur": 2.5e-5, "hit": 1},
		S: map[string]string{"name": "cache.lookup", "trace": "j00000001"}}
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() { _, _ = AppendEvent(buf[:0], e) }); n != 0 {
		t.Fatalf("AppendEvent into a large enough buffer allocates %v times, want 0", n)
	}
}

// FuzzAppendEvent fuzzes the encoder against json.Marshal over the
// value classes where a hand-written encoder can drift: floats near the
// switch to exponent form, integers near the end of the exact range,
// signed zero, HTML-escaped, control and non-ASCII (including invalid)
// strings, empty maps, and the unrepresentable NaN and ±Inf, which must
// fail as they do in Marshal.
func FuzzAppendEvent(f *testing.F) {
	f.Add(0.0, "span", "id", 1.0, "name", "<a&b>", uint8(3))
	f.Add(math.Copysign(0, -1), "x", "z", math.Copysign(0, -1), "", "", uint8(3))
	f.Add(1e-6, "k", "a", 9.999999999999999e-7, "s", "ü\u2028", uint8(3))
	f.Add(1e21, "k", "a", 9.999999999999999e20, "s", "\xff", uint8(3))
	f.Add(math.NaN(), "k", "a", 1.0, "s", "v", uint8(3))
	f.Add(1.0, "k", "a", math.Inf(-1), "s", "v", uint8(1))
	f.Add(2.5, "\x00\b\f\n\r\t\"\\", "\x1f", 1e-7, "\x7f", "日本", uint8(0))
	f.Add(-7.0, "k", "a", 999999999999999.0, "s", "v", uint8(3))
	f.Add(1e15, "k", "a", -9007199254740993.0, "s", "v", uint8(3))
	f.Fuzz(func(t *testing.T, tv float64, kind, fkey string, fval float64, skey, sval string, shape uint8) {
		e := Event{T: tv, Kind: kind}
		switch shape % 4 { // bit 0: f map non-nil, bit 1: s map non-nil
		case 1:
			e.F = map[string]float64{}
		case 2:
			e.S = map[string]string{}
		case 3:
			e.F, e.S = map[string]float64{}, map[string]string{}
		}
		if e.F != nil && shape&4 == 0 {
			e.F[fkey] = fval
			e.F[fkey+"2"] = -fval / 3
		}
		if e.S != nil && shape&8 == 0 {
			e.S[skey] = sval
			e.S[sval] = skey
		}
		checkAppendEvent(t, e)
	})
}

func BenchmarkAppendEvent(b *testing.B) {
	e := Event{T: 0.25, Kind: KindSpan,
		F: map[string]float64{"id": 3, "parent": 1, "start": 0.001, "dur": 2.5e-5, "hit": 1, "store": 0},
		S: map[string]string{"name": "cache.lookup", "trace": "j00000001"}}
	want, _ := json.Marshal(e)
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendEvent(buf[:0], e)
	}
	if !bytes.Equal(buf, want) {
		b.Fatalf("AppendEvent %s, json.Marshal %s", buf, want)
	}
}
