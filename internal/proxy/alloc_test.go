package proxy

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"repro/internal/registry"
	"repro/internal/replay"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// allocBudget bounds the allocations of one request on the admission
// path's hot shapes: a read passed through, and a write the decision
// cache answers. It counts the one *http.Response the upstream below
// allocates plus one of slack; the proxy's own plumbing pools
// everything it needs and allocates nothing.
const allocBudget = 2

// allocUpstream answers every forward with one fresh response and
// drains the request body the way a transport does.
type allocUpstream struct{}

var allocRespHeader = http.Header{}

func (allocUpstream) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		_, _ = io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &http.Response{StatusCode: http.StatusOK, Header: allocRespHeader, Body: http.NoBody, Request: req}, nil
}

// allocRecorder is a reusable http.ResponseWriter.
type allocRecorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (r *allocRecorder) Header() http.Header { return r.h }
func (r *allocRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}
func (r *allocRecorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}
func (r *allocRecorder) reset() {
	clear(r.h)
	r.code = 0
	r.body.Reset()
}

// rewindBody is a resettable request body.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// allocCase is one request shape the budgets cover.
type allocCase struct {
	name   string
	method string
	path   string
	ctype  string
	body   []byte
}

// allocCases builds the read, JSON write and YAML write of the first
// object of the first of eight synthetic workloads (seed 1), with the
// registry that governs them (one namespaced policy per workload).
func allocCases(t *testing.T) (*registry.Registry, []allocCase, string) {
	t.Helper()
	ws, err := synth.Generate(synth.Options{Seed: 1, Count: 8})
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(registry.Config{CacheSize: 4096})
	for i := range ws {
		if _, err := reg.Register(ws[i].Name, registry.Selector{Namespace: ws[i].Name}, ws[i].Policy); err != nil {
			t.Fatal(err)
		}
	}
	o := ws[0].Objects[0]
	js, err := replay.BenignEvent(ws[0].Name, o, http.MethodPut)
	if err != nil {
		t.Fatal(err)
	}
	ym, err := replay.BenignEventYAML(ws[0].Name, o, http.MethodPut)
	if err != nil {
		t.Fatal(err)
	}
	return reg, []allocCase{
		{"read", http.MethodGet, js.Path, "", nil},
		{"json write", js.Method, js.Path, js.ContentType, js.Body},
		{"yaml write", ym.Method, ym.Path, ym.ContentType, ym.Body},
	}, "operator:" + ws[0].Name
}

// measureAllocs sends the case through h repeatedly and returns the
// mean allocations of one ServeHTTP, after checking the verdict.
func measureAllocs(t *testing.T, h http.Handler, c allocCase, user string) float64 {
	t.Helper()
	req, err := http.NewRequest(c.method, c.path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.ctype != "" {
		req.Header.Set("Content-Type", c.ctype)
	}
	req.Header.Set("X-Remote-User", user)
	rec := &allocRecorder{h: http.Header{}}
	var body rewindBody
	send := func() {
		req.Body, req.ContentLength = nil, 0
		if c.body != nil {
			body.Reset(c.body)
			req.Body, req.ContentLength = &body, int64(len(c.body))
		}
		rec.reset()
		h.ServeHTTP(rec, req)
	}
	send() // warm the decision cache
	if rec.code != http.StatusOK {
		t.Fatalf("%s answered %d: %s", c.name, rec.code, rec.body.String())
	}
	return testing.AllocsPerRun(500, send)
}

// TestServeHTTPAllocBudget holds the lone proxy to its allocation
// budget: a pooled outbound request, header map, body reader and body
// buffer, and a media type matched without parsing.
func TestServeHTTPAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	reg, cases, user := allocCases(t)
	p, err := New(Config{
		Upstream:  "http://upstream.test",
		Transport: allocUpstream{},
		Registry:  reg,
		ProxyUser: "kubefence-proxy",
		Telemetry: telemetry.New(telemetry.Config{SampleEvery: 128}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		got := measureAllocs(t, p, c, user)
		t.Logf("%s: %.0f allocs", c.name, got)
		if got > allocBudget {
			t.Errorf("%s: %.0f allocs per request, budget %d", c.name, got, allocBudget)
		}
	}
}
