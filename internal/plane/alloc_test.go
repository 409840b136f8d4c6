package plane

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"repro/internal/proxy"
	"repro/internal/registry"
	"repro/internal/replay"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// allocBudget bounds the allocations of one request through a lone
// proxy on its hot shapes (a read, and a write the decision cache
// answers): the one *http.Response the upstream below allocates plus
// one of slack. The tier may add at most tierAllocSlack on top: the
// front door reads, routes and scans the request once and hands that to
// the replica.
const (
	allocBudget    = 2
	tierAllocSlack = 1
)

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

// rewindBody is a resettable request body.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// measureAllocs sends one request shape through h repeatedly and
// returns the mean allocations of one ServeHTTP, after checking the
// verdict.
func measureAllocs(t *testing.T, h http.Handler, method, path, ctype string, body []byte, user string) float64 {
	t.Helper()
	req, err := http.NewRequest(method, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	req.Header.Set("X-Remote-User", user)
	rec := &allocRecorder{h: http.Header{}}
	var rb rewindBody
	send := func() {
		req.Body, req.ContentLength = nil, 0
		if body != nil {
			rb.Reset(body)
			req.Body, req.ContentLength = &rb, int64(len(body))
		}
		clear(rec.h)
		rec.code = 0
		rec.body.Reset()
		h.ServeHTTP(rec, req)
	}
	send() // warm the decision cache
	if rec.code != http.StatusOK {
		t.Fatalf("%s %s answered %d: %s", method, path, rec.code, rec.body.String())
	}
	return testing.AllocsPerRun(500, send)
}

// TestTierAllocBudget holds a lone proxy to its allocation budget and
// the tier to at most one allocation more, on a read, a cache-hit JSON
// write and a cache-hit YAML write of eight synthetic workloads (seed 1).
func TestTierAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	ws, err := synth.Generate(synth.Options{Seed: 1, Count: 8})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := New(Config{
		Replicas:  2,
		Upstream:  "http://upstream.test",
		Transport: allocUpstream{},
		CacheSize: 4096,
		ProxyUser: "kubefence-proxy",
		Telemetry: &telemetry.Config{SampleEvery: 128},
		Placement: PlacementWeighted,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(registry.Config{CacheSize: 4096})
	for i := range ws {
		sel := registry.Selector{Namespace: ws[i].Name}
		if err := pl.Register(ws[i].Name, sel, ws[i].Policy); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Register(ws[i].Name, sel, ws[i].Policy); err != nil {
			t.Fatal(err)
		}
	}
	px, err := proxy.New(proxy.Config{
		Upstream:  "http://upstream.test",
		Transport: allocUpstream{},
		Registry:  reg,
		ProxyUser: "kubefence-proxy",
		Telemetry: telemetry.New(telemetry.Config{SampleEvery: 128}),
	})
	if err != nil {
		t.Fatal(err)
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
	user := "operator:" + ws[0].Name
	for _, c := range []struct {
		name string
		ev   replay.Event
	}{
		{"read", replay.Event{Method: http.MethodGet, Path: js.Path}},
		{"json write", js},
		{"yaml write", ym},
	} {
		lone := measureAllocs(t, px, c.ev.Method, c.ev.Path, c.ev.ContentType, c.ev.Body, user)
		tier := measureAllocs(t, pl, c.ev.Method, c.ev.Path, c.ev.ContentType, c.ev.Body, user)
		t.Logf("%s: lone proxy %.0f allocs, tier %.0f", c.name, lone, tier)
		if lone > allocBudget {
			t.Errorf("%s: lone proxy %.0f allocs per request, budget %d", c.name, lone, allocBudget)
		}
		if tier > lone+tierAllocSlack {
			t.Errorf("%s: tier %.0f allocs per request, more than %d over the lone proxy's %.0f",
				c.name, tier, tierAllocSlack, lone)
		}
	}
}
