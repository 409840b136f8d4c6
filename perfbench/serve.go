package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/plane"
	"repro/internal/proxy"
	"repro/internal/registry"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/validator"
)

// Serving configuration shared by every workload: the decision-cache size
// every committed baseline uses and the CLI's default trace sampling.
const (
	cacheSize   = 4096
	sampleEvery = 128
	upstreamURL = "http://upstream.perfbench"
	proxyUser   = "kubefence-proxy"
	// probeWorkload is the registry entry a lone proxy's publishes go to.
	probeWorkload = "perfbench-publish"
	// rebalanceThreshold is the weighted placer's hysteresis band, the
	// one the plane experiment measures its zipf tiers with.
	rebalanceThreshold = 0.05
)

// setupTimes splits one setup into the phases setup_s covers.
type setupTimes struct {
	policy, register, boot time.Duration
}

func (s setupTimes) total() time.Duration { return s.policy + s.register + s.boot }

// system is one booted enforcement point: a registry-backed proxy, or a
// plane tier when tier is set.
type system struct {
	ws      []synth.Workload
	pols    [][2]*validator.Validator
	reg     *registry.Registry // proxy mode
	px      *proxy.Proxy       // proxy mode
	pl      *plane.Plane       // tier mode
	handler http.Handler
	// probes counts requests the setup itself sent (the readiness GET).
	probes uint64
}

// bootSystem runs the timed setup: policy build (the synth corpus),
// compile and register, and boot of the serving handler up to a served
// readiness probe. The policy copies publishes alternate with are the
// benchmark's own and are built afterwards, by withCopies.
func bootSystem(seed int64, n int, tier bool, replicas int) (*system, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	ws, err := synth.Generate(synth.Options{Seed: seed, Count: n})
	if err != nil {
		return nil, st, err
	}
	st.policy = time.Since(t0)
	sys := &system{ws: ws}

	if tier {
		t1 := time.Now()
		pl, err := plane.New(plane.Config{
			Replicas:  replicas,
			Upstream:  upstreamURL,
			Transport: upstream{},
			CacheSize: cacheSize,
			ProxyUser: proxyUser,
			Telemetry: &telemetry.Config{SampleEvery: sampleEvery},
			Placement: plane.PlacementWeighted,
			// Balance as tightly as the plane experiment does, so the
			// zipf skew leaves shards for rebalances to move.
			RebalanceThreshold: rebalanceThreshold,
		})
		if err != nil {
			return nil, st, err
		}
		st.boot = time.Since(t1)
		t2 := time.Now()
		for i := range ws {
			if err := pl.Register(ws[i].Name, registry.Selector{Namespace: ws[i].Name}, ws[i].Policy); err != nil {
				return nil, st, err
			}
		}
		st.register = time.Since(t2)
		sys.pl, sys.handler = pl, pl
	} else {
		t1 := time.Now()
		reg := registry.New(registry.Config{CacheSize: cacheSize})
		for i := range ws {
			if _, err := reg.Register(ws[i].Name, registry.Selector{Namespace: ws[i].Name}, ws[i].Policy); err != nil {
				return nil, st, err
			}
		}
		if _, err := reg.Register(probeWorkload, registry.Selector{Namespace: probeWorkload}, ws[0].Policy); err != nil {
			return nil, st, err
		}
		st.register = time.Since(t1)
		t2 := time.Now()
		px, err := proxy.New(proxy.Config{
			Upstream:  upstreamURL,
			Transport: upstream{},
			Registry:  reg,
			ProxyUser: proxyUser,
			Telemetry: telemetry.New(telemetry.Config{SampleEvery: sampleEvery}),
		})
		if err != nil {
			return nil, st, err
		}
		st.boot = time.Since(t2)
		sys.reg, sys.px, sys.handler = reg, px, px
	}
	t3 := time.Now()
	if err := sys.ready(); err != nil {
		return nil, st, err
	}
	st.boot += time.Since(t3)
	return sys, st, nil
}

// withCopies builds the verdict-equivalent policy copies publishes
// alternate with. It is benchmark preparation, outside setup_s.
func (s *system) withCopies() error {
	pols, err := policyCopies(s.ws)
	s.pols = pols
	return err
}

// ready sends one read through the handler: the system is up once it
// serves.
func (s *system) ready() error {
	req, err := http.NewRequest(http.MethodGet, "/api/v1/namespaces/"+s.ws[0].Name+"/configmaps", nil)
	if err != nil {
		return err
	}
	rec := newRecorder()
	s.handler.ServeHTTP(rec, req)
	s.probes++
	if rec.code != http.StatusOK {
		return fmt.Errorf("perfbench: readiness probe answered %d", rec.code)
	}
	return nil
}

// proxyMetrics returns the summed proxy counters of the serving handler.
func (s *system) proxyMetrics() proxy.Metrics {
	if s.pl != nil {
		return s.pl.Metrics().Proxy
	}
	return s.px.Metrics()
}

// registryTotals sums per-workload registry counters across the serving
// registry or every replica of the tier.
func (s *system) registryTotals() (requests, denied, hits uint64) {
	add := func(m registry.Metrics) {
		requests += m.Requests
		denied += m.Denied
		hits += m.CacheHits
	}
	if s.pl != nil {
		for i := 0; i < s.pl.Replicas(); i++ {
			for _, w := range s.ws {
				if m, ok := s.pl.ReplicaWorkloadMetrics(i, w.Name); ok {
					add(m)
				}
			}
		}
		return
	}
	for _, m := range s.reg.Metrics() {
		add(m)
	}
	return
}

// decisions counts the decisions the serving handler's telemetry hubs
// recorded (front-door routing records excluded).
func (s *system) decisions() uint64 {
	var snap telemetry.Snapshot
	if s.pl != nil {
		snap = s.pl.Telemetry()
	} else {
		snap = s.px.Telemetry().Snapshot()
	}
	n := snap.Decisions()
	if w := snap.Workload(plane.FrontDoorWorkload); w != nil {
		for _, c := range w.Cells {
			n -= c.Count
		}
	}
	return n
}

// frontDoor reports the tier front door's routing records: count and
// summed nanoseconds (zero in proxy mode).
func (s *system) frontDoor() (count, sumNs uint64) {
	if s.pl == nil {
		return 0, 0
	}
	snap := s.pl.Telemetry()
	if w := snap.Workload(plane.FrontDoorWorkload); w != nil {
		for _, c := range w.Cells {
			count += c.Count
			sumNs += c.SumNs
		}
	}
	return count, sumNs
}

// clientKey carries the sending client through the request context into
// the upstream round trip.
type clientKey struct{}

// upstream is the benchmark's in-memory API server: it drains and closes
// every forwarded body, counts the forward against the sending client,
// and answers 201 to creates and 200 otherwise.
type upstream struct{}

var emptyHeader = http.Header{}

func (upstream) RoundTrip(req *http.Request) (*http.Response, error) {
	c, _ := req.Context().Value(clientKey{}).(*client)
	var t0 time.Time
	if c != nil && c.tr != nil {
		t0 = time.Now()
	}
	if req.Body != nil {
		_, _ = io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	code := http.StatusOK
	if req.Method == http.MethodPost {
		code = http.StatusCreated
	}
	if req.Header.Get("X-Forwarded-User") == "" {
		code = http.StatusUnauthorized
	}
	resp := &http.Response{StatusCode: code, Header: emptyHeader, Body: http.NoBody, Request: req}
	if c != nil {
		c.forwarded++
		if c.tr != nil {
			c.upNs += int64(time.Since(t0))
		}
	}
	return resp, nil
}

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func newRecorder() *recorder { return &recorder{h: http.Header{}} }

func (r *recorder) Header() http.Header { return r.h }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *recorder) reset() {
	clear(r.h)
	r.code = 0
	r.body.Reset()
}

// hasViolations reports whether a denial body lists at least one
// violation (the proxy renders details.violations as a JSON string list).
func hasViolations(body []byte) bool {
	i := bytes.Index(body, []byte(`"violations":[`))
	return i >= 0 && len(body) > i+15 && body[i+14] == '"'
}

// bodyReader is a resettable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }
