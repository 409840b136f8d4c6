package main

import (
	"bytes"
	"io"
	"mime"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/compile"
	"repro/internal/object"
	"repro/internal/proxy"
	"repro/internal/registry"
	"repro/internal/telemetry"
	"repro/internal/validator"
)

// Request classes of the ledger.
const (
	clsRead       = iota // GET passthrough, never inspected
	clsHit               // write decided by a decision-cache hit
	clsVouched           // cache miss the raw matcher decided
	clsDecoded           // write allowed on the decode path
	clsDenied            // write denied (403)
	clsUnresolved        // write no policy governs
	numClasses
)

var classNames = [numClasses]string{"read", "hit", "vouched", "decoded", "denied", "unresolved"}

// acc accumulates one span kind: count, nanoseconds and body bytes.
type acc struct {
	n, ns, bytes int64
}

func (a *acc) add(ns int64, bytes int) {
	a.n++
	a.ns += ns
	a.bytes += int64(bytes)
}

func (a *acc) merge(b acc) {
	a.n += b.n
	a.ns += b.ns
	a.bytes += b.bytes
}

func (a acc) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.n)
}

// mbps is the span's byte rate in MB/s.
func (a acc) mbps() float64 {
	if a.ns == 0 {
		return 0
	}
	return float64(a.bytes) / float64(a.ns) * 1e3
}

// classAcc is one request class of the ledger.
type classAcc struct {
	n                         int64
	admit, up, children, self int64
	// Per-request residual and admit samples, for the median-based
	// reconciliation check (GC pauses land in means, not medians).
	selfs, admits []int32
}

// maxClassSamples bounds the per-class sample slices.
const maxClassSamples = 1 << 20

// spanRecord is one request's span set, kept for the span log.
type spanRecord struct {
	Class    string           `json:"class"`
	Admit    int64            `json:"admit_ns"`
	Upstream int64            `json:"upstream_ns"`
	Self     int64            `json:"proxy_self_ns"`
	Spans    map[string]int64 `json:"spans"`
}

// tracer replays each traced request through the public layer calls, in
// the proxy's order, against a twin registry fed the identical stream, so
// the measured registry is never touched and cache state matches.
type tracer struct {
	twin    *registry.Registry
	hub     *telemetry.Hub
	tier    bool
	timerNs int64
	// calibrate switches the replay to allocation counting: no probes,
	// decode allocations recorded.
	calibrate    bool
	decodeAllocs int64
	decodes      int64
	// calStart is the malloc count read just before ServeHTTP; calAdmit
	// is the last request's ServeHTTP mallocs and calChild the mallocs of
	// its replayed layer calls (the body plumbing replay excluded: those
	// allocations are the proxy's own and the harness's, not a layer's).
	calStart, calAdmit, calChild uint64

	cls                           [numClasses]classAcc
	scan, match, decode           [2]acc
	route                         acc // tier front door's routing scan
	body                          acc // proxy's body read and media-type parse
	resolve, lookup, regMiss      acc
	regValidate, diagnose, record acc
	eligible, vouched             int64
	writes                        int64

	keep  int
	spans []spanRecord
	cur   map[string]int64
	buf   bytes.Buffer
	// routeKey keeps the replayed shard key alive, as the front door's is.
	routeKey string
}

// maxInspectBytes mirrors the proxy's inspection limit.
const maxInspectBytes = 4 << 20

func newTracer(twin *registry.Registry, hub *telemetry.Hub, tier bool, timerNs int64, keep int) *tracer {
	return &tracer{twin: twin, hub: hub, tier: tier, timerNs: timerNs, keep: keep}
}

// since is a span's duration with the timer's own cost taken out.
func (tr *tracer) since(t0 time.Time) int64 {
	d := int64(time.Since(t0)) - tr.timerNs
	if d < 0 {
		return 0
	}
	return d
}

func (tr *tracer) note(name string, ns int64) {
	if tr.cur != nil {
		tr.cur[name] += ns
	}
}

// replay records the admit span of one served request and replays its
// body through the layers.
func (tr *tracer) replay(c *client, t *template, body []byte, admit time.Duration, code int) {
	if tr.calibrate {
		tr.calAdmit = mallocs() - tr.calStart
		tr.calChild = 0
	}
	if len(tr.spans) < tr.keep && !tr.calibrate {
		tr.cur = map[string]int64{}
	}
	a := int64(admit) - tr.timerNs
	up := c.upNs
	cls := clsRead
	var children int64
	if t != nil {
		tr.writes++
		children, cls = tr.replayWrite(t, body)
		if code == 403 {
			cls = clsDenied
		}
	}
	self := a - up - children
	k := &tr.cls[cls]
	k.n++
	k.admit += a
	k.up += up
	k.children += children
	k.self += self
	if len(k.selfs) < maxClassSamples {
		k.selfs = append(k.selfs, clamp32(self))
		k.admits = append(k.admits, clamp32(a))
	}
	if tr.cur != nil {
		tr.spans = append(tr.spans, spanRecord{Class: classNames[cls], Admit: a, Upstream: up, Self: self, Spans: tr.cur})
		tr.cur = nil
	}
}

// replayWrite runs the proxy's inspection order on the twin and returns
// the summed child spans and the request class.
func (tr *tracer) replayWrite(t *template, body []byte) (int64, int) {
	f := 0
	if t.yaml {
		f = 1
	}
	// The proxy's own write-only plumbing: buffer the body and parse its
	// media type. It is proxy self time, measured so that only the
	// plumbing reads and writes share is left in the residual.
	ct := "application/json"
	if t.yaml {
		ct = "application/yaml"
	}
	t0 := time.Now()
	tr.buf.Reset()
	_, _ = tr.buf.ReadFrom(io.LimitReader(bytes.NewReader(body), maxInspectBytes+1))
	_, _, _ = mime.ParseMediaType(ct)
	d := tr.since(t0)
	tr.body.add(d, len(body))
	tr.note("proxy.body", d)
	children := d

	if tr.tier {
		// The tier front door buffers the body and scans it for its
		// shard key before handing the request to a replica.
		t0 = time.Now()
		tr.buf.Reset()
		_, _ = tr.buf.ReadFrom(io.LimitReader(bytes.NewReader(body), maxInspectBytes+1))
		m, _ := scanMeta(tr.buf.Bytes(), t.yaml)
		tr.routeKey = "ns/" + string(m.Namespace)
		d = tr.since(t0)
		tr.route.add(d, len(body))
		tr.note("plane.route", d)
		children += d
	}

	var calFrom uint64
	if tr.calibrate {
		calFrom = mallocs()
	}
	t0 = time.Now()
	meta, scanned := scanMeta(body, t.yaml)
	d = tr.since(t0)
	tr.scan[f].add(d, len(body))
	tr.note("compile.scan", d)
	children += d

	cls := clsUnresolved
	workload := proxy.UnresolvedWorkload
	verdict := telemetry.VerdictRejected
	path := telemetry.PathRaw
	decided := false
	if scanned {
		var entry *registry.Entry
		var found bool
		t0 = time.Now()
		if len(meta.Namespace) > 0 {
			entry, found = tr.twin.ResolveRaw(meta.Namespace, meta.Kind)
		} else {
			entry, found = tr.twin.Resolve(requestNamespace(t.path), string(meta.Kind))
		}
		d = tr.since(t0)
		tr.resolve.add(d, 0)
		tr.note("registry.resolve", d)
		children += d
		if !found {
			decided = true
		} else {
			hits := entry.Metrics().CacheHits
			var vs []validator.Violation
			t0 = time.Now()
			if t.yaml {
				vs, decided = tr.twin.ValidateRawYAMLScanned(entry, body, meta)
			} else {
				vs, decided = tr.twin.ValidateRawScanned(entry, body, meta)
			}
			d = tr.since(t0)
			children += d
			if entry.Metrics().CacheHits > hits {
				tr.lookup.add(d, 0)
				tr.note("registry.cache_lookup", d)
				cls = clsHit
			} else {
				tr.eligible++
				var p int64
				if !tr.calibrate {
					prog := entry.Program()
					t0 = time.Now()
					if t.yaml {
						prog.MatchRawYAMLScanned(meta, body)
					} else {
						prog.MatchRawScanned(meta, body)
					}
					p = min(tr.since(t0), d)
					tr.match[f].add(p, len(body))
					tr.note("compile.match", p)
				}
				tr.regMiss.add(d-p, 0)
				tr.note("registry.validate_raw", d-p)
				if decided {
					tr.vouched++
					cls = clsVouched
				}
			}
			if decided {
				workload = entry.Workload()
				verdict = telemetry.VerdictAllowed
				if len(vs) > 0 {
					verdict = telemetry.VerdictDenied
				}
			}
		}
	}
	if !decided {
		path = telemetry.PathDecoded
		var m0 uint64
		if tr.calibrate {
			m0 = mallocs()
		}
		t0 = time.Now()
		obj, err := decodeBody(body, t.yaml)
		d = tr.since(t0)
		if tr.calibrate {
			tr.decodeAllocs += int64(mallocs() - m0)
			tr.decodes++
		}
		tr.decode[f].add(d, len(body))
		tr.note("object.decode", d)
		children += d
		if err == nil {
			ns := obj.Namespace()
			if ns == "" {
				ns = requestNamespace(t.path)
			}
			t0 = time.Now()
			entry, found := tr.twin.Resolve(ns, obj.Kind())
			d = tr.since(t0)
			tr.resolve.add(d, 0)
			tr.note("registry.resolve", d)
			children += d
			if found {
				hits := entry.Metrics().CacheHits
				t0 = time.Now()
				vs := tr.twin.Validate(entry, body, obj)
				d = tr.since(t0)
				children += d
				var p int64
				if entry.Metrics().CacheHits == hits && !tr.calibrate {
					prog := entry.Program()
					t0 = time.Now()
					prog.Validate(obj)
					p = min(tr.since(t0), d)
					tr.diagnose.add(p, 0)
					tr.note("compile.diagnose", p)
				}
				tr.regValidate.add(d-p, 0)
				tr.note("registry.validate", d-p)
				workload = entry.Workload()
				verdict = telemetry.VerdictAllowed
				cls = clsDecoded
				if len(vs) > 0 {
					verdict = telemetry.VerdictDenied
				}
			}
		}
	}
	t0 = time.Now()
	tr.hub.RecordDecision(workload, verdict, path, time.Duration(children))
	d = tr.since(t0)
	tr.record.add(d, 0)
	tr.note("telemetry.record", d)
	children += d
	if tr.calibrate {
		tr.calChild = mallocs() - calFrom
	}
	return children, cls
}

// mallocs reads the runtime's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func clamp32(v int64) int32 {
	return int32(max(min(v, 1<<31-1), -1<<31))
}

func median32(xs []int32) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int32(nil), xs...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return float64(s[len(s)/2])
}

func scanMeta(body []byte, yaml bool) (compile.RawMeta, bool) {
	if yaml {
		return compile.ScanRawYAMLMeta(body)
	}
	return compile.ScanRawMeta(body)
}

func decodeBody(body []byte, yaml bool) (object.Object, error) {
	if yaml {
		return object.ParseManifest(body)
	}
	return object.ParseJSON(body)
}

// requestNamespace mirrors the proxy's URL namespace extraction.
func requestNamespace(path string) string {
	const tok = "/namespaces/"
	i := strings.Index(path, tok)
	if i < 0 {
		return ""
	}
	ns := path[i+len(tok):]
	if j := strings.IndexByte(ns, '/'); j >= 0 {
		ns = ns[:j]
	}
	return ns
}

// merge folds another client's tracer into tr.
func (tr *tracer) merge(o *tracer) {
	for i := range tr.cls {
		k, ok := &tr.cls[i], o.cls[i]
		k.n += ok.n
		k.admit += ok.admit
		k.up += ok.up
		k.children += ok.children
		k.self += ok.self
		k.selfs = append(k.selfs, ok.selfs...)
		k.admits = append(k.admits, ok.admits...)
	}
	for f := 0; f < 2; f++ {
		tr.scan[f].merge(o.scan[f])
		tr.match[f].merge(o.match[f])
		tr.decode[f].merge(o.decode[f])
	}
	for _, p := range [][2]*acc{
		{&tr.route, &o.route}, {&tr.body, &o.body}, {&tr.resolve, &o.resolve}, {&tr.lookup, &o.lookup},
		{&tr.regMiss, &o.regMiss}, {&tr.regValidate, &o.regValidate},
		{&tr.diagnose, &o.diagnose}, {&tr.record, &o.record},
	} {
		p[0].merge(*p[1])
	}
	tr.eligible += o.eligible
	tr.vouched += o.vouched
	tr.writes += o.writes
	tr.decodeAllocs += o.decodeAllocs
	tr.decodes += o.decodes
	tr.spans = append(tr.spans, o.spans...)
}

// timerCost is the median cost of an empty span (two clock reads).
func timerCost() int64 {
	const n = 20001
	ds := make([]int64, n)
	for i := range ds {
		t0 := time.Now()
		ds[i] = int64(time.Since(t0))
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[n/2]
}
