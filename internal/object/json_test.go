package object_test

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/chart"
	"repro/internal/charts"
	"repro/internal/mutate"
	"repro/internal/object"
	"repro/internal/synth"
)

func TestParseJSONPreservesInt64Precision(t *testing.T) {
	// 9007199254740993 = 2^53 + 1: the first integer float64 cannot
	// represent. Plain json.Unmarshal coerces it to 9007199254740992.
	body := []byte(`{"kind":"Pod","spec":{"securityContext":{"runAsUser":9007199254740993}}}`)
	o, err := object.ParseJSON(body)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := object.Get(o, "spec.securityContext.runAsUser")
	if !ok {
		t.Fatal("runAsUser missing after decode")
	}
	i, ok := v.(int64)
	if !ok {
		t.Fatalf("runAsUser decoded as %T, want int64", v)
	}
	if i != 9007199254740993 {
		t.Fatalf("runAsUser = %d, precision lost (want 9007199254740993)", i)
	}
}

func TestParseJSONNumberForms(t *testing.T) {
	o, err := object.ParseJSON([]byte(`{"i":42,"neg":-7,"f":1.5,"intish":3.0,"exp":1e3,"big":99999999999999999999}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key  string
		want any
	}{
		{"i", int64(42)},
		{"neg", int64(-7)},
		{"f", 1.5},
		// "3.0" and "1e3" fail strconv.ParseInt (it rejects the
		// dot/exponent) and land as float64, matching plain Unmarshal.
		{"intish", 3.0},
		{"exp", 1000.0},
		// Beyond int64 range: falls to float64 rather than erroring.
		{"big", 1e20},
	} {
		got := o[tc.key]
		if got != tc.want {
			t.Errorf("%s = %v (%T), want %v (%T)", tc.key, got, got, tc.want, tc.want)
		}
	}
}

func TestParseJSONErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		body string
		want string // phrase the error must carry
	}{
		{"malformed", `{"a":`, "offset 5"},
		{"array root", `[1,2]`, "request root is array, want object"},
		{"scalar root", `"x"`, "request root is string, want object"},
		{"null root", `null`, "request root is null, want object"},
		{"trailing data", `{"a":1} {"b":2}`, "trailing data after JSON document"},
		{"overflowing exponent", `{"a":1e999}`, "overflows every supported numeric type"},
		{"nested overflow", `{"a":{"b":[1e999]}}`, "overflows every supported numeric type"},
		{"duplicate key", `{"a":1,"a":2}`, `duplicate key "a" in JSON object`},
		{"escaped duplicate key", `{"a":1,"\u0061":2}`, `duplicate key "a" in JSON object`},
		{"max depth", strings.Repeat("[", 10001) + "1" + strings.Repeat("]", 10001), "exceeds max nesting depth 10000"},
		{"bad character", `{"a":x}`, "invalid character 'x' at offset 5"},
	} {
		_, err := object.ParseJSON([]byte(tc.body))
		if err == nil {
			t.Errorf("%s: ParseJSON succeeded, want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ParseJSON error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestDecodeJSONEdgeCases pins the accept set and value model on the
// inputs where a hand-written decoder most easily drifts from
// encoding/json, and checks each against the reference decoder too.
func TestDecodeJSONEdgeCases(t *testing.T) {
	const reject = "reject"
	for _, tc := range []struct {
		name string
		doc  string
		want any // decoded value, or reject
	}{
		// Syntax the grammar forbids.
		{"control byte in string", "\"a\x01b\"", reject},
		{"raw newline in string", "\"a\nb\"", reject},
		{"bad escape", `"\x41"`, reject},
		{"single-quote escape", `"\'"`, reject},
		{"short unicode escape", `"\u12"`, reject},
		{"non-hex unicode escape", `"\u12G4"`, reject},
		{"bad escape after high surrogate", `"\uD800\u12G4"`, reject},
		{"unterminated string", `"abc`, reject},
		{"leading BOM", "\xEF\xBB\xBF{}", reject},
		{"leading zero", `01`, reject},
		{"leading zero in array", `[01]`, reject},
		{"trailing dot", `1.`, reject},
		{"leading dot", `.5`, reject},
		{"leading plus", `+1`, reject},
		{"bare minus", `-`, reject},
		{"minus space", `- 1`, reject},
		{"empty exponent", `1e`, reject},
		{"signed empty exponent", `1e+`, reject},
		{"empty document", ``, reject},
		{"space only", " \t\r\n", reject},
		{"trailing comma in array", `[1,]`, reject},
		{"trailing comma in object", `{"a":1,}`, reject},
		{"missing colon", `{"a" 1}`, reject},
		{"missing comma", `[1 2]`, reject},
		{"non-string key", `{1:2}`, reject},
		{"literal prefix", `tru`, reject},
		{"literal run-on", `[truex]`, reject},
		{"mismatched close", `[1}`, reject},
		{"unclosed object", `{"a":1`, reject},
		{"trailing data", `{} x`, reject},
		{"float overflow", `1e309`, reject},
		{"negative float overflow", `-1e309`, reject},
		{"duplicate key", `{"a":1,"a":2}`, reject},
		{"escape-only duplicate key", `{"a":1,"\u0061":2}`, reject},
		{"escaped slash duplicate key", `{"/":1,"\/":2}`, reject},
		{"nested duplicate key", `{"x":[{"k":1,"k":1}]}`, reject},
		{"invalid UTF-8 keys collide", "{\"\xff\":1,\"\xfe\":2}", reject},

		// Strings.
		{"empty string", `""`, ""},
		{"simple escapes", `"\"\\\/\b\f\n\r\t"`, "\"\\/\b\f\n\r\t"},
		{"DEL is not a control byte", "\"\x7f\"", "\x7f"},
		{"emoji", `"😀"`, "😀"},
		{"surrogate pair", `"\uD83D\uDE00"`, "😀"},
		{"lowercase surrogate pair", `"\ud83d\ude00"`, "😀"},
		{"lone high surrogate", `"\uD800"`, "\uFFFD"},
		{"lone low surrogate", `"\uDC00"`, "\uFFFD"},
		{"high surrogate then letter", `"\uD800x"`, "\uFFFDx"},
		{"high surrogate then non-surrogate escape", `"\uD800\u0041"`, "\uFFFDA"},
		{"two high surrogates", `"\uD800\uD800"`, "\uFFFD\uFFFD"},
		{"raw 0xff byte", "\"\xff\"", "\uFFFD"},
		{"truncated UTF-8", "\"a\xe2\x82\"", "a\uFFFD\uFFFD"},
		{"UTF-8 encoded surrogate", "\"\xed\xa0\x80\"", "\uFFFD\uFFFD\uFFFD"},
		{"escape after invalid UTF-8", "\"\xff\\n\"", "\uFFFD\n"},
		{"literal U+FFFD", "\"\xef\xbf\xbd\"", "\uFFFD"},
		{"escaped NUL", `"\u0000"`, "\x00"},

		// Numbers.
		{"int64 max", `9223372036854775807`, int64(math.MaxInt64)},
		{"int64 min", `-9223372036854775808`, int64(math.MinInt64)},
		{"one past int64 max", `9223372036854775808`, 9223372036854775808.0},
		{"one past int64 min", `-9223372036854775809`, -9223372036854775809.0},
		{"18 digits", `999999999999999999`, int64(999999999999999999)},
		{"negative 18 digits", `-999999999999999999`, int64(-999999999999999999)},
		{"19 digits", `1000000000000000000`, int64(1000000000000000000)},
		{"negative 19 digits", `-1000000000000000000`, int64(-1000000000000000000)},
		{"zero", `0`, int64(0)},
		{"negative zero", `-0`, int64(0)},
		{"negative zero float", `-0.0`, math.Copysign(0, -1)},
		{"fraction", `0.5`, 0.5},
		{"exponent", `1E2`, 100.0},
		{"signed exponent", `25e-1`, 2.5},
		{"underflow", `1e-400`, 0.0},
		{"large int in array", `[300,-1]`, []any{int64(300), int64(-1)}},

		// Literals and containers.
		{"true", `true`, true},
		{"false", ` false `, false},
		{"null", `null`, nil},
		{"empty array", `[]`, []any{}},
		{"empty object", `{}`, map[string]any{}},
		{"nested", `{"a":[{"b":{}}, [], null]}`, map[string]any{"a": []any{map[string]any{"b": map[string]any{}}, []any{}, nil}}},
		{"space everywhere", " {\n\"a\" :\t[ 1 , 2 ] \r} ", map[string]any{"a": []any{int64(1), int64(2)}}},
		{"escaped key", `{"\u0061b":1}`, map[string]any{"ab": int64(1)}},
		{"well-known keys", `{"apiVersion":"v1","kind":"Pod"}`, map[string]any{"apiVersion": "v1", "kind": "Pod"}},

		// Nesting: a value inside 10000 containers is accepted, one more
		// level is rejected.
		{"depth 10000", nest(10000, "1"), nestValue(10000, int64(1))},
		{"depth 10001", nest(10001, "1"), reject},
		{"depth 10000 objects", nestObjects(10000), accepted{}},
		{"depth 10001 objects", nestObjects(10001), reject},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := object.DecodeJSON([]byte(tc.doc))
			ref, refErr := referenceDecodeJSON([]byte(tc.doc))
			if (err == nil) != (refErr == nil) {
				t.Fatalf("DecodeJSON err=%v, reference err=%v", err, refErr)
			}
			if err == nil && !reflect.DeepEqual(got, ref) {
				t.Fatalf("DecodeJSON = %#v, reference = %#v", got, ref)
			}
			switch want := tc.want; {
			case want == reject:
				if err == nil {
					t.Fatalf("DecodeJSON accepted %q as %#v, want error", tc.doc, got)
				}
			case err != nil:
				t.Fatalf("DecodeJSON: %v", err)
			case want == accepted{}:
			case !reflect.DeepEqual(got, want):
				t.Fatalf("DecodeJSON = %#v, want %#v", got, want)
			}
			if f, ok := tc.want.(float64); ok && f == 0 && math.Signbit(f) != math.Signbit(got.(float64)) {
				t.Fatalf("DecodeJSON = %v, sign of zero lost", got)
			}
		})
	}
}

// accepted marks an edge case whose value is only compared with the
// reference decoder.
type accepted struct{}

func nest(depth int, inner string) string {
	return strings.Repeat("[", depth) + inner + strings.Repeat("]", depth)
}

func nestValue(depth int, inner any) any {
	for i := 0; i < depth; i++ {
		inner = []any{inner}
	}
	return inner
}

// nestObjects builds an empty object inside depth enclosing objects.
func nestObjects(depth int) string {
	return strings.Repeat(`{"a":`, depth) + "{}" + strings.Repeat("}", depth)
}

var (
	corpusOnce   sync.Once
	corpusBodies [][]byte
	corpusErr    error
)

// jsonCorpus returns the JSON admission bodies of the first 25 synth
// workloads plus the full mutation matrix over every builtin chart.
func jsonCorpus(tb testing.TB) [][]byte {
	corpusOnce.Do(func() {
		var objs []object.Object
		ws, err := synth.Generate(synth.Options{Seed: 1, Count: 25})
		if err != nil {
			corpusErr = err
			return
		}
		for _, w := range ws {
			objs = append(objs, w.Objects...)
		}
		for _, name := range charts.Names() {
			files, err := charts.MustLoad(name).Render(nil, chart.ReleaseOptions{Name: "rel", Namespace: name})
			if err != nil {
				corpusErr = err
				return
			}
			legit := chart.Objects(files)
			objs = append(objs, legit...)
			scs, err := mutate.ForCatalog(legit, mutate.Options{})
			if err != nil {
				corpusErr = err
				return
			}
			for _, sc := range scs {
				objs = append(objs, sc.Object)
			}
		}
		for _, o := range objs {
			body, err := json.Marshal(o)
			if err != nil {
				corpusErr = err
				return
			}
			corpusBodies = append(corpusBodies, body)
		}
	})
	if corpusErr != nil {
		tb.Fatal(corpusErr)
	}
	return corpusBodies
}

// TestDecodeJSONMatchesReferenceOnCorpus replays every corpus body
// through both decoders.
func TestDecodeJSONMatchesReferenceOnCorpus(t *testing.T) {
	bodies := jsonCorpus(t)
	if len(bodies) < 1000 {
		t.Fatalf("corpus has %d bodies, want >= 1000", len(bodies))
	}
	for _, body := range bodies {
		checkEquivalent(t, body)
	}
}

func checkEquivalent(t *testing.T, data []byte) {
	t.Helper()
	got, err := object.DecodeJSON(data)
	ref, refErr := referenceDecodeJSON(data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("accept sets diverge on %q: DecodeJSON err=%v, reference err=%v", data, err, refErr)
	}
	if err == nil && !reflect.DeepEqual(got, ref) {
		t.Fatalf("values diverge on %q:\n DecodeJSON %#v\n reference  %#v", data, got, ref)
	}
}

// FuzzDecodeJSONEquivalence holds DecodeJSON to the encoding/json
// reference decoder: the same accept/reject decision on every input and
// reflect.DeepEqual values on accept.
func FuzzDecodeJSONEquivalence(f *testing.F) {
	for i, body := range jsonCorpus(f) {
		if i%16 == 0 { // a spread of corpus shapes keeps the seed set small
			f.Add(body)
		}
	}
	for _, s := range []string{
		"\"a\x01b\"", `"\x41"`, "\xEF\xBB\xBF{}", `01`, `1.`, `.5`, `+1`, `-`,
		`"😀"`, `"\uD800"`, `"\uD83D\uDE00"`, `"\uD800\u0041"`, "\"\xff\"",
		`9223372036854775807`, `-9223372036854775808`,
		`9223372036854775808`, `-9223372036854775809`,
		`999999999999999999`, `1000000000000000000`, `-0`, `1e309`, `1e-400`,
		`{"a":1,"\u0061":2}`, `{"a":1} {"b":2}`, `[1,]`, `{"a":[{"b":null}],"c":true}`,
		nest(20, "1"),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEquivalent(t, data)
	})
}

// nginxAttackBody is the JSON body of a mutation-matrix attack on the
// nginx chart's Deployment: the kind of request that takes the decode
// path on every denial.
func nginxAttackBody(tb testing.TB) []byte {
	files, err := charts.MustLoad("nginx").Render(nil, chart.ReleaseOptions{Name: "rel", Namespace: "nginx"})
	if err != nil {
		tb.Fatal(err)
	}
	scs, err := mutate.ForCatalog(chart.Objects(files), mutate.Options{MaxPerAttackClass: 1})
	if err != nil {
		tb.Fatal(err)
	}
	for _, sc := range scs {
		if sc.Object.Kind() == "Deployment" && !sc.YAMLBody {
			body, err := json.Marshal(sc.Object)
			if err != nil {
				tb.Fatal(err)
			}
			return body
		}
	}
	tb.Fatal("no JSON Deployment attack in the nginx mutation matrix")
	return nil
}

// treeSize counts the decoded values a decoder must allocate for: maps,
// lists, keys, strings, and numbers too large for the runtime's
// preallocated single-byte boxes.
func treeSize(v any) int {
	switch t := v.(type) {
	case map[string]any:
		n := 1
		for _, e := range t {
			n += 1 + treeSize(e)
		}
		return n
	case []any:
		n := 1
		for _, e := range t {
			n += treeSize(e)
		}
		return n
	case string:
		return 1
	case int64:
		if t < 0 || t > 255 {
			return 1
		}
	case float64:
		return 1
	}
	return 0
}

// TestParseJSONAllocsWithinTreeSize pins the decoder's allocation
// budget: at most one allocation per node of the decoded tree, so a
// return to per-token boxing fails here.
func TestParseJSONAllocsWithinTreeSize(t *testing.T) {
	body := nginxAttackBody(t)
	o, err := object.ParseJSON(body)
	if err != nil {
		t.Fatal(err)
	}
	budget := treeSize(map[string]any(o))
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := object.ParseJSON(body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d-byte body: %.0f allocs, tree size %d", len(body), allocs, budget)
	if allocs > float64(budget) {
		t.Fatalf("ParseJSON made %.0f allocs on a %d-byte body, want <= tree size %d", allocs, len(body), budget)
	}
}

func BenchmarkParseJSON(b *testing.B) {
	body := nginxAttackBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := object.ParseJSON(body); err != nil {
			b.Fatal(err)
		}
	}
}

func TestScalarEqualPrecision(t *testing.T) {
	for _, tc := range []struct {
		a, b any
		want bool
	}{
		{int64(5), 5.0, true},
		{5.0, int64(5), true},
		{int64(5), int(5), true},
		{int64(5), 5.5, false},
		{1.5, 1.5, true},
		{1.5, 2.5, false},
		// The precision cases: adjacent int64s beyond 2^53 must stay
		// distinct, and an approximating float64 must not collide.
		{int64(9007199254740993), int64(9007199254740993), true},
		{int64(9007199254740993), int64(9007199254740992), false},
		{int64(9007199254740993), 9007199254740992.0, false},
		{int64(9007199254740992), 9007199254740992.0, true},
		{int64(5), "5", false},
		{1e300, int64(42), false},
	} {
		if got := object.Equal(tc.a, tc.b); got != tc.want {
			t.Errorf("Equal(%v (%T), %v (%T)) = %v, want %v",
				tc.a, tc.a, tc.b, tc.b, got, tc.want)
		}
	}
}
