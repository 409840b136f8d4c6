package proxy

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/chart"
	"repro/internal/charts"
	"repro/internal/core"
	"repro/internal/mutate"
)

// statusOracle is the reflective rendering appendStatus replaces: the
// Status body as a map through json.Encoder, which sorts the keys,
// escapes HTML-sensitive runes and appends a newline.
func statusOracle(code int, reason, message string, msgs []string) []byte {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(map[string]any{
		"kind":    "Status",
		"status":  "Failure",
		"reason":  reason,
		"message": message + strings.Join(msgs, "; "),
		"code":    code,
		"details": map[string]any{"violations": msgs},
	})
	return buf.Bytes()
}

// checkStatus compares appendStatus with the oracle for one violation
// list, under both denial reasons.
func checkStatus(t *testing.T, msgs []string) {
	t.Helper()
	for _, c := range []struct {
		code            int
		reason, message string
	}{
		{http.StatusForbidden, "KubeFencePolicyViolation", "request blocked by KubeFence policy: "},
		{http.StatusBadRequest, "KubeFenceRequestRejected", "request rejected by KubeFence enforcement point: "},
	} {
		got := appendStatus(nil, c.code, c.reason, c.message, msgs)
		if want := statusOracle(c.code, c.reason, c.message, msgs); !bytes.Equal(got, want) {
			t.Errorf("appendStatus(%q) =\n%s\nwant\n%s", msgs, got, want)
		}
	}
}

// TestAppendStatusMatchesEncoder checks the denial body byte for byte
// against encoding/json over every violation list the full mutation
// matrix of the chart workloads produces, and over escaping edge cases.
func TestAppendStatusMatchesEncoder(t *testing.T) {
	lists := 0
	for _, name := range charts.Names() {
		c := charts.MustLoad(name)
		res, err := core.GeneratePolicy(c, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		files, err := c.Render(nil, chart.ReleaseOptions{Name: "rel", Namespace: name})
		if err != nil {
			t.Fatal(err)
		}
		scs, err := mutate.ForCatalog(chart.Objects(files), mutate.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scs {
			vs := res.Validator.Validate(sc.Object)
			msgs := make([]string, len(vs))
			for i, v := range vs {
				msgs[i] = v.String()
			}
			checkStatus(t, msgs)
			lists++
		}
	}
	if lists == 0 {
		t.Fatal("the mutation matrix produced no violation lists")
	}
	t.Logf("%d violation lists from the mutation matrix", lists)

	for _, msgs := range [][]string{
		{},
		{""},
		{`<script>alert("x")</script> & more`},
		{"line\nbreak\ttab\rreturn\bbackspace\fformfeed"},
		{"\x00\x01\x1f\x7f control bytes"},
		{"quote \" backslash \\ slash /"},
		{"line\u2028separator\u2029paragraph"},
		{"separators   and  ", "é ü 日本 🙂"},
		{"invalid \xff utf-8 \xe2\x80 truncated", "\xc0\xaf overlong", "\xed\xa0\x80 surrogate"},
		{"ends in a lead byte \xe2", "\x80 starts with a continuation byte"},
		{"spec.containers[0].image: not allowed (got \"evil<>&\")", "second; violation"},
	} {
		checkStatus(t, msgs)
	}
}
