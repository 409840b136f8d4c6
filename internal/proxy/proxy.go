// Package proxy implements the KubeFence enforcement point (paper §V-B):
// an intercepting proxy deployed between API clients and the Kubernetes
// API server — the role mitmproxy plays in the paper's implementation.
//
// Every incoming request is authenticated, and write requests (create,
// update, patch) have their body checked against the workload's policy.
// Conforming requests are forwarded upstream unchanged; violating
// requests are rejected with HTTP 403 and a violation record carrying
// the offending field paths and reasons, enabling the auditing and
// forensics the paper describes.
//
// The admission data path is streaming-first: for JSON and YAML bodies
// of enforce-mode workloads, routing metadata (kind, namespace, name)
// is scanned straight off the wire bytes (compile.ScanRawMeta /
// compile.ScanRawYAMLMeta), the workload policy is resolved through the
// registry's match trie without materializing strings (ResolveRaw), the
// workload's decision-cache shard is consulted on the body hash, and
// the compiled program's streaming fast pass walks the raw bytes — so
// an ALLOWED request is never decoded into a document at all. Request
// bodies live in pooled buffers returned to the pool when the upstream
// round trip completes. Only deny verdicts, cache-missed shadow/learn
// traffic, tap-equipped proxies, and constructs the scanners cannot
// vouch for take the classic decode + diagnostic path, whose verdicts
// and violation lists the raw path reproduces exactly
// (registry.ValidateRaw contract).
//
// Identity is propagated upstream via the front-proxy headers
// (X-Forwarded-User/-Group) over an mTLS channel only the proxy can open,
// preserving Complete Mediation: the API server refuses direct client
// connections because only the proxy holds a client certificate.
//
// A proxy enforces one policy registry. The single-workload configuration
// (Config.Validator) remains supported and registers the validator as a
// cluster-wide wildcard policy; the multi-workload configuration
// (Config.Registry) resolves, per request, the most specific workload
// policy for the object's namespace and kind, and fails closed when no
// registered policy governs the request.
//
// Each workload carries a rollout mode (registry modes, learn →
// shadow → enforce): learn-mode requests are forwarded unvalidated and
// fed to the workload's policy miner, shadow-mode requests are validated
// against the candidate policy with the would-deny verdict recorded but
// never enforced, and enforce mode is the classic deny path. Config.Tap
// additionally streams every inspected request to a trace sink for
// offline mining. Audit callbacks (OnViolation, OnShadowViolation, Tap)
// can be moved off the request goroutine onto a bounded async ring with
// explicit drop accounting via Config.SinkBuffer.
package proxy

import (
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/object"
	"repro/internal/registry"
	"repro/internal/telemetry"
	"repro/internal/validator"
)

// ViolationRecord is one denied request, for auditing. It is the
// registry's per-workload record type; proxy-level denials that could not
// be attributed to a workload (undecodable bodies, unmatched requests)
// leave Workload empty.
type ViolationRecord = registry.Record

// Metrics aggregates proxy counters.
type Metrics struct {
	Requests  uint64
	Inspected uint64
	Denied    uint64
	// Shadowed counts would-deny verdicts recorded for shadow-mode
	// workloads (the requests themselves were forwarded).
	Shadowed uint64
	// RawAllowed counts inspected requests decided on the streaming
	// fast path (raw bytes, no decode), including body-hash cache hits.
	RawAllowed uint64
	// RawDenied counts inspected requests denied without decoding
	// (cached denials answered from raw bytes).
	RawDenied      uint64
	ValidationTime time.Duration
}

// Config configures the proxy.
type Config struct {
	// Upstream is the API server base URL, e.g. "https://127.0.0.1:6443".
	Upstream string
	// Transport carries requests upstream (holds the mTLS client config).
	// Defaults to http.DefaultTransport.
	Transport http.RoundTripper
	// Validator is a single cluster-wide workload policy. Exactly one of
	// Validator or Registry is required.
	Validator *validator.Validator
	// Registry supplies per-workload policies resolved per request; the
	// proxy denies requests no registered policy governs (fail closed).
	Registry *registry.Registry
	// CacheSize bounds the decision cache of the registry the proxy
	// builds for a single Validator (0 disables caching). Ignored when
	// Registry is set — configure the cache on the registry instead.
	CacheSize int
	// ProxyUser is the identity the proxy asserts to the upstream API
	// server when the channel is not mTLS (header authentication). It
	// must be listed in the API server's FrontProxyUsers. With mTLS the
	// proxy's client certificate CN carries the identity instead.
	ProxyUser string
	// DisableRawFastPath forces every inspected request through the
	// classic decode-first path. For ablation benchmarks (the e2e
	// experiment's decode baseline) and debugging; verdicts are
	// identical either way.
	DisableRawFastPath bool
	// SinkBuffer, when > 0, moves the OnViolation / OnShadowViolation /
	// Tap callbacks off the request goroutine onto a bounded async ring
	// of this capacity serviced by one background goroutine. A full
	// ring drops events (counted in SinkStats), never blocks a request.
	// Zero keeps the callbacks synchronous on the request path.
	SinkBuffer int
	// OnViolation, when non-nil, receives every denial record.
	OnViolation func(ViolationRecord)
	// OnShadowViolation, when non-nil, receives every would-deny record
	// of a workload in shadow mode (the request itself was forwarded).
	OnShadowViolation func(ViolationRecord)
	// Tap, when non-nil, receives every successfully decoded and
	// resolved inspected request — the live capture feeding offline
	// policy mining (internal/learn traces). Configuring a tap disables
	// the decode-free fast path: every inspected request is decoded so
	// the tap sees the object. With SinkBuffer > 0 the callback itself
	// still runs off the request goroutine.
	Tap func(workload, user, method, path string, obj object.Object)
	// Telemetry, when non-nil, records every decision (counter +
	// latency histogram per workload × verdict × path) and samples
	// decision traces into the hub. Recording is lock-free and
	// allocation-free; a nil hub costs one predictable branch.
	Telemetry *telemetry.Hub
}

// Proxy is the enforcement handler.
type Proxy struct {
	upstream     *url.URL
	upstreamHost string
	transport    http.RoundTripper
	proxyUser    string
	registry     *registry.Registry
	// single names the implicit wildcard entry of a proxy built from
	// Config.Validator; SetValidator swaps that entry's policy.
	single     string
	disableRaw bool
	onViolate  func(ViolationRecord)
	onShadow   func(ViolationRecord)
	tap        func(workload, user, method, path string, obj object.Object)
	sink       *asyncSink
	telemetry  *telemetry.Hub

	violations *registry.BoundedLog
	requests   atomic.Uint64
	inspected  atomic.Uint64
	denied     atomic.Uint64
	shadowed   atomic.Uint64
	rawAllowed atomic.Uint64
	rawDenied  atomic.Uint64
	valNanos   atomic.Int64
}

// workloadName names the implicit registry entry for a bare validator.
func workloadName(v *validator.Validator) string {
	if v != nil && v.Workload != "" {
		return v.Workload
	}
	return "default"
}

// New builds a Proxy.
func New(cfg Config) (*Proxy, error) {
	if cfg.Validator == nil && cfg.Registry == nil {
		return nil, fmt.Errorf("proxy: one of Config.Validator or Config.Registry is required")
	}
	if cfg.Validator != nil && cfg.Registry != nil {
		return nil, fmt.Errorf("proxy: Config.Validator and Config.Registry are mutually exclusive")
	}
	if cfg.Upstream == "" {
		return nil, fmt.Errorf("proxy: Config.Upstream is required")
	}
	// Parsed once, as http.NewRequest parses it; every forward copies
	// the URL and host.
	tmpl, err := http.NewRequest(http.MethodGet, strings.TrimSuffix(cfg.Upstream, "/"), nil)
	if err != nil {
		return nil, fmt.Errorf("proxy: Config.Upstream: %w", err)
	}
	p := &Proxy{
		upstream:     tmpl.URL,
		upstreamHost: tmpl.Host,
		transport:    cfg.Transport,
		proxyUser:    cfg.ProxyUser,
		registry:     cfg.Registry,
		disableRaw:   cfg.DisableRawFastPath,
		onViolate:    cfg.OnViolation,
		onShadow:     cfg.OnShadowViolation,
		tap:          cfg.Tap,
		telemetry:    cfg.Telemetry,
		violations:   registry.NewBoundedLog(registry.MaxRecords),
	}
	if p.transport == nil {
		p.transport = http.DefaultTransport
	}
	if cfg.Validator != nil {
		p.registry = registry.New(registry.Config{CacheSize: cfg.CacheSize})
		p.single = workloadName(cfg.Validator)
		if _, err := p.registry.Register(p.single, registry.Selector{}, cfg.Validator); err != nil {
			return nil, err
		}
	}
	if cfg.SinkBuffer > 0 {
		p.sink = newAsyncSink(cfg.SinkBuffer, cfg.OnViolation, cfg.OnShadowViolation, cfg.Tap)
	}
	return p, nil
}

// SetValidator swaps the enforced policy atomically (policy updates
// without proxy restarts) on a proxy built from Config.Validator,
// replacing the implicit cluster-wide policy. A nil validator is
// ignored. On a registry-backed proxy it is a no-op: silently
// registering a cluster-wide wildcard would convert the documented
// fail-closed behavior into allow-by-one-policy — manage per-workload
// policies through Registry().Swap instead. The swap-or-register loop
// retries so a lost race against a concurrent SetValidator cannot
// silently drop the update.
func (p *Proxy) SetValidator(v *validator.Validator) {
	if v == nil || p.single == "" {
		return
	}
	for {
		if err := p.registry.Swap(p.single, v); err == nil {
			return
		}
		if _, err := p.registry.Register(p.single, registry.Selector{}, v); err == nil {
			return
		}
		// Another goroutine registered the entry between our Swap and
		// Register; the next Swap succeeds against it.
	}
}

// Registry exposes the proxy's policy registry for per-workload metrics,
// violation records, and live policy management.
func (p *Proxy) Registry() *registry.Registry { return p.registry }

// Telemetry exposes the proxy's telemetry hub (nil when the proxy was
// built without one).
func (p *Proxy) Telemetry() *telemetry.Hub { return p.telemetry }

// UnresolvedWorkload is the telemetry workload label for decisions the
// proxy could not attribute to a registered workload: undecodable
// bodies and requests no policy governs (fail-closed rejections).
const UnresolvedWorkload = "_unresolved"

// Violations returns a snapshot of all denial records.
func (p *Proxy) Violations() []ViolationRecord {
	return p.violations.Snapshot()
}

// ResetViolations clears the denial log.
func (p *Proxy) ResetViolations() {
	p.violations.Reset()
}

// Metrics returns a snapshot of the counters.
func (p *Proxy) Metrics() Metrics {
	return Metrics{
		Requests:       p.requests.Load(),
		Inspected:      p.inspected.Load(),
		Denied:         p.denied.Load(),
		Shadowed:       p.shadowed.Load(),
		RawAllowed:     p.rawAllowed.Load(),
		RawDenied:      p.rawDenied.Load(),
		ValidationTime: time.Duration(p.valNanos.Load()),
	}
}

// SinkStats reports the async sink's delivery accounting. Zero-valued
// when Config.SinkBuffer was 0 (synchronous callbacks).
func (p *Proxy) SinkStats() SinkStats {
	if p.sink == nil {
		return SinkStats{}
	}
	return p.sink.stats()
}

// FlushSinks waits until every event enqueued so far has been delivered
// or dropped, bounded by the timeout; it reports whether the sink fully
// drained. A no-op (true) for synchronous sinks.
func (p *Proxy) FlushSinks(timeout time.Duration) bool {
	if p.sink == nil {
		return true
	}
	return p.sink.flush(timeout)
}

// CloseSinks stops the async sink worker after draining queued events.
// Call after the proxy has stopped serving requests; safe to call more
// than once, and a no-op for synchronous sinks.
func (p *Proxy) CloseSinks() {
	if p.sink != nil {
		p.sink.close()
	}
}

// ServeHTTP implements http.Handler: read and classify the request
// once, then admit it.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.Admit(w, Classify(r))
}

// Admit inspects, validates, and forwards or denies a classified
// request, and recycles it. Every failure on the inspection path fails
// closed with its own audit-able outcome: unreadable bodies (mid-stream
// disconnects), oversized bodies, unsupported content types, and
// undecodable bodies each produce a denial record with a distinct
// reason and status code.
func (p *Proxy) Admit(w http.ResponseWriter, q *Request) {
	p.requests.Add(1)
	r := q.r
	user, groups := clientIdentity(r)

	if q.err != nil {
		p.deny(w, r, user, nil, "", "", http.StatusBadRequest, []validator.Violation{{
			Reason: "request body could not be read: " + q.err.Error(),
		}})
		q.Release()
		return
	}
	body := q.body
	// Oversized bodies are denied for every method, before the
	// inspection branch: the read is capped, so forwarding would
	// silently hand upstream a truncated request.
	if len(body) > maxInspectBytes {
		p.deny(w, r, user, nil, "", "", http.StatusRequestEntityTooLarge, []validator.Violation{{
			Reason: fmt.Sprintf("request body exceeds the %d MiB inspection limit", maxInspectBytes>>20),
		}})
		q.Release()
		return
	}

	if inspectable(r.Method) && len(body) > 0 {
		p.inspected.Add(1)
		if !q.typed {
			p.deny(w, r, user, nil, "", "", http.StatusUnsupportedMediaType, []validator.Violation{{
				Reason: fmt.Sprintf("unsupported content type %q for an inspected request", r.Header.Get("Content-Type")),
			}})
			q.Release()
			return
		}
		format := q.format
		start := time.Now()
		// tc is nil for all but 1/N decisions (telemetry sampling); every
		// method on a nil ctx is a no-op, so the stage marks below cost
		// nothing on the unsampled hot path.
		tc := p.telemetry.Sample()

		// Streaming fast path: decide requests straight off the wire
		// bytes whenever possible, for both encodings. The scanners
		// succeeding guarantees the body decodes and the extracted
		// routing fields equal the decoded accessors, so resolving
		// before decoding is observationally identical to the classic
		// order; ResolveRaw probes the registry's match trie on the
		// scanned byte slices without materializing strings. Taps force
		// the decode path (they consume the object); non-enforce modes
		// fall through (learn feeds the miner, shadow records
		// diagnostics).
		if !p.disableRaw && p.tap == nil {
			if meta, scanned := q.scan(); scanned {
				var entry *registry.Entry
				var found bool
				if len(meta.Namespace) > 0 {
					entry, found = p.registry.ResolveRaw(meta.Namespace, meta.Kind)
				} else {
					entry, found = p.registry.Resolve(requestNamespace(r.URL.Path), string(meta.Kind))
				}
				tc.Stage("resolve")
				if !found {
					namespace := string(meta.Namespace)
					if namespace == "" {
						namespace = requestNamespace(r.URL.Path)
					}
					kind := string(meta.Kind)
					el := time.Since(start)
					p.valNanos.Add(int64(el))
					p.telemetry.RecordDecision(UnresolvedWorkload, telemetry.VerdictRejected, telemetry.PathRaw, el)
					if tc != nil {
						tc.Finish(UnresolvedWorkload, telemetry.VerdictRejected, telemetry.PathRaw, kind, string(meta.Name))
					}
					p.reject(w, r, user, nil, kind, string(meta.Name), []validator.Violation{{
						Reason: fmt.Sprintf("no KubeFence policy registered for namespace %q kind %q",
							namespace, kind),
					}})
					q.Release()
					return
				}
				if entry.Mode() == registry.ModeEnforce {
					var vs []validator.Violation
					var decided bool
					if format == formatYAML {
						vs, decided = p.registry.ValidateRawYAMLScanned(entry, body, meta)
					} else {
						vs, decided = p.registry.ValidateRawScanned(entry, body, meta)
					}
					if decided {
						tc.Stage("raw-match")
						el := time.Since(start)
						p.valNanos.Add(int64(el))
						if len(vs) > 0 {
							p.rawDenied.Add(1)
							p.telemetry.RecordDecision(entry.Workload(), telemetry.VerdictDenied, telemetry.PathRaw, el)
							if tc != nil {
								tc.Finish(entry.Workload(), telemetry.VerdictDenied, telemetry.PathRaw, string(meta.Kind), string(meta.Name))
							}
							p.reject(w, r, user, entry, string(meta.Kind), string(meta.Name), vs)
							q.Release()
							return
						}
						p.rawAllowed.Add(1)
						p.telemetry.RecordDecision(entry.Workload(), telemetry.VerdictAllowed, telemetry.PathRaw, el)
						// Guarded: the string conversions in the Finish
						// arguments must not run (allocate) on the unsampled
						// fast path.
						if tc != nil {
							tc.Finish(entry.Workload(), telemetry.VerdictAllowed, telemetry.PathRaw, string(meta.Kind), string(meta.Name))
						}
						p.forward(w, q, user, groups)
						return
					}
				}
			}
		}

		obj, err := q.object()
		tc.Stage("decode")
		if err != nil {
			el := time.Since(start)
			p.valNanos.Add(int64(el))
			p.telemetry.RecordDecision(UnresolvedWorkload, telemetry.VerdictRejected, telemetry.PathDecoded, el)
			tc.Finish(UnresolvedWorkload, telemetry.VerdictRejected, telemetry.PathDecoded, "", "")
			p.reject(w, r, user, nil, "", "", []validator.Violation{{
				Reason: "request body is not a valid Kubernetes object: " + err.Error(),
			}})
			q.Release()
			return
		}
		namespace := obj.Namespace()
		if namespace == "" {
			namespace = requestNamespace(r.URL.Path)
		}
		entry, ok := p.registry.Resolve(namespace, obj.Kind())
		tc.Stage("resolve")
		if !ok {
			el := time.Since(start)
			p.valNanos.Add(int64(el))
			p.telemetry.RecordDecision(UnresolvedWorkload, telemetry.VerdictRejected, telemetry.PathDecoded, el)
			tc.Finish(UnresolvedWorkload, telemetry.VerdictRejected, telemetry.PathDecoded, obj.Kind(), obj.Name())
			p.reject(w, r, user, nil, obj.Kind(), obj.Name(), []validator.Violation{{
				Reason: fmt.Sprintf("no KubeFence policy registered for namespace %q kind %q",
					namespace, obj.Kind()),
			}})
			q.Release()
			return
		}
		if p.tap != nil {
			p.emitTap(entry.Workload(), user, r.Method, r.URL.Path, obj)
		}
		// The workload's rollout mode decides what "validate" means:
		// learn feeds the miner and forwards, shadow records the verdict
		// and forwards, enforce denies violations (the classic path).
		switch entry.Mode() {
		case registry.ModeLearn:
			entry.ObserveLearn(obj)
			tc.Stage("validate")
			el := time.Since(start)
			p.valNanos.Add(int64(el))
			p.telemetry.RecordDecision(entry.Workload(), telemetry.VerdictLearned, telemetry.PathDecoded, el)
			tc.Finish(entry.Workload(), telemetry.VerdictLearned, telemetry.PathDecoded, obj.Kind(), obj.Name())
		case registry.ModeShadow:
			violations, _ := p.registry.ShadowValidate(entry, body, obj)
			tc.Stage("validate")
			el := time.Since(start)
			p.valNanos.Add(int64(el))
			// A clean shadow validation is an allowed decision; only a
			// would-deny records as shadowed.
			if len(violations) > 0 {
				p.telemetry.RecordDecision(entry.Workload(), telemetry.VerdictShadowed, telemetry.PathDecoded, el)
				tc.Finish(entry.Workload(), telemetry.VerdictShadowed, telemetry.PathDecoded, obj.Kind(), obj.Name())
				p.recordShadow(r, user, entry, obj, violations)
				// Pre-enforcement traffic is trusted by definition of the
				// rollout, so a would-deny is a learning opportunity:
				// feed it back to the miner and let the controller
				// publish the grown candidate.
				if obs := entry.Observer(); obs != nil {
					obs.Observe(obj)
				}
			} else {
				p.telemetry.RecordDecision(entry.Workload(), telemetry.VerdictAllowed, telemetry.PathDecoded, el)
				tc.Finish(entry.Workload(), telemetry.VerdictAllowed, telemetry.PathDecoded, obj.Kind(), obj.Name())
			}
		default: // registry.ModeEnforce
			violations := p.registry.Validate(entry, body, obj)
			tc.Stage("validate")
			el := time.Since(start)
			p.valNanos.Add(int64(el))
			if len(violations) > 0 {
				p.telemetry.RecordDecision(entry.Workload(), telemetry.VerdictDenied, telemetry.PathDecoded, el)
				tc.Finish(entry.Workload(), telemetry.VerdictDenied, telemetry.PathDecoded, obj.Kind(), obj.Name())
				p.reject(w, r, user, entry, obj.Kind(), obj.Name(), violations)
				q.Release()
				return
			}
			p.telemetry.RecordDecision(entry.Workload(), telemetry.VerdictAllowed, telemetry.PathDecoded, el)
			tc.Finish(entry.Workload(), telemetry.VerdictAllowed, telemetry.PathDecoded, obj.Kind(), obj.Name())
		}
	}

	p.forward(w, q, user, groups)
}

// requestNamespace extracts the namespace segment of an API request path
// ("/api/v1/namespaces/{ns}/..." or "/apis/{g}/{v}/namespaces/{ns}/..."),
// for requests whose body omits metadata.namespace.
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

// inspectable reports whether the method carries a specification to
// validate. Reads and deletes carry no object specification; the paper's
// policies constrain what may be *created or reconfigured*.
func inspectable(method string) bool {
	switch method {
	case http.MethodPost, http.MethodPut, http.MethodPatch:
		return true
	}
	return false
}

// bodyFormat values route an inspected body to its decoder family.
type bodyFormatKind int

const (
	formatJSON bodyFormatKind = iota
	formatYAML
)

// bodyFormat classifies the Content-Type of an inspected request. The
// header is parsed as a proper media type (RFC 2045), so parameters a
// real client attaches ("application/json; charset=utf-8") don't change
// the verdict — a substring match would also have waved through any
// type that merely *mentions* json ("application/not-json-at-all"),
// which is exactly the kind of routing ambiguity an enforcement point
// cannot afford. Unknown base types stay fail-closed (415): a body the
// proxy would misparse is a body it must not vouch for. An empty
// content type defaults to JSON (kubectl and client-go always set one;
// bare tooling often doesn't).
func bodyFormat(contentType string) (bodyFormatKind, bool) {
	// The exact values clients send match without parsing (or
	// allocating); anything else takes the RFC 2045 parse.
	switch contentType {
	case "", "application/json", "text/json":
		return formatJSON, true
	case "application/yaml", "text/yaml", "application/x-yaml":
		return formatYAML, true
	}
	mediaType, _, err := mime.ParseMediaType(contentType)
	if err != nil {
		return 0, false
	}
	switch mediaType {
	case "application/json", "text/json":
		return formatJSON, true
	case "application/yaml", "text/yaml", "application/x-yaml":
		return formatYAML, true
	}
	return 0, false
}

// decodeObject decodes an inspected body. JSON goes through the
// precision-preserving decoder (object.ParseJSON): numbers normalize to
// int64 when exact, so large integers survive to the validators instead
// of being rounded to the nearest float64 before the policy sees them.
func decodeObject(body []byte, format bodyFormatKind) (object.Object, error) {
	if format == formatYAML {
		return object.ParseManifest(body)
	}
	return object.ParseJSON(body)
}

// clientIdentity extracts the caller identity the same way the API server
// would have (client certificate CN, else X-Remote-User).
func clientIdentity(r *http.Request) (string, []string) {
	if r.TLS != nil && len(r.TLS.PeerCertificates) > 0 {
		leaf := r.TLS.PeerCertificates[0]
		return leaf.Subject.CommonName, leaf.Subject.Organization
	}
	if h := r.Header.Get("X-Remote-User"); h != "" {
		return h, r.Header.Values("X-Remote-Group")
	}
	return "system:anonymous", nil
}

// emitViolation delivers a denial record to the violation sink —
// asynchronously when the proxy has an async sink, inline otherwise.
func (p *Proxy) emitViolation(rec ViolationRecord) {
	if p.onViolate == nil {
		return
	}
	if p.sink != nil {
		p.sink.enqueue(sinkEvent{kind: sinkViolation, rec: rec})
		return
	}
	p.onViolate(rec)
}

func (p *Proxy) emitShadow(rec ViolationRecord) {
	if p.onShadow == nil {
		return
	}
	if p.sink != nil {
		p.sink.enqueue(sinkEvent{kind: sinkShadow, rec: rec})
		return
	}
	p.onShadow(rec)
}

func (p *Proxy) emitTap(workload, user, method, path string, obj object.Object) {
	if p.tap == nil {
		return
	}
	if p.sink != nil {
		p.sink.enqueue(sinkEvent{kind: sinkTap,
			tap: tapEvent{workload: workload, user: user, method: method, path: path, obj: obj}})
		return
	}
	p.tap(workload, user, method, path, obj)
}

// recordShadow logs a would-deny verdict for a shadow-mode workload:
// the record lands in the entry's shadow log (never the denial log or
// the denied metric — nothing was denied) and the shadow callback.
func (p *Proxy) recordShadow(r *http.Request, user string,
	entry *registry.Entry, obj object.Object, violations []validator.Violation) {
	p.shadowed.Add(1)
	rec := ViolationRecord{
		Time:       time.Now(),
		User:       user,
		Method:     r.Method,
		RequestURI: r.URL.Path,
		Kind:       obj.Kind(),
		Name:       obj.Name(),
		Violations: violations,
	}
	entry.RecordShadowViolation(rec)
	rec.Workload = entry.Workload()
	p.emitShadow(rec)
}

// reject denies a request that violates policy (HTTP 403). kind and
// name identify the object for the audit record; on the raw path they
// come from the wire-byte scan, which matches the decoded accessors.
func (p *Proxy) reject(w http.ResponseWriter, r *http.Request, user string,
	entry *registry.Entry, kind, name string, violations []validator.Violation) {
	p.deny(w, r, user, entry, kind, name, http.StatusForbidden, violations)
}

// deny fails a request closed with the given status code, recording an
// audit-able denial record either way. Only policy rejections (403)
// count toward the denied metric: transport-level failures (unreadable,
// oversized, or unparseable-typed bodies) would otherwise skew the
// experiments' denial rates.
func (p *Proxy) deny(w http.ResponseWriter, r *http.Request, user string,
	entry *registry.Entry, kind, name string, code int, violations []validator.Violation) {
	if code == http.StatusForbidden {
		p.denied.Add(1)
	}
	rec := ViolationRecord{
		Time:       time.Now(),
		User:       user,
		Method:     r.Method,
		RequestURI: r.URL.Path,
		Kind:       kind,
		Name:       name,
		Violations: violations,
	}
	if entry != nil {
		rec.Workload = entry.Workload()
		entry.RecordViolation(rec)
	}
	p.violations.Append(rec)
	p.emitViolation(rec)

	msgs := make([]string, len(violations))
	for i, v := range violations {
		msgs[i] = v.String()
	}
	// Policy violations and transport-level rejections carry distinct
	// Status reasons so clients and audit sinks can tell them apart.
	reason, message := "KubeFencePolicyViolation", "request blocked by KubeFence policy: "
	if code != http.StatusForbidden {
		reason, message = "KubeFenceRequestRejected", "request rejected by KubeFence enforcement point: "
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(appendStatus(make([]byte, 0, 512), code, reason, message, msgs))
}

// appendStatus appends the denial's Kubernetes Status body exactly as
// encoding/json encodes the equivalent map: keys sorted, strings
// HTML-escaped, one trailing newline.
func appendStatus(b []byte, code int, reason, message string, msgs []string) []byte {
	b = append(b, `{"code":`...)
	b = strconv.AppendInt(b, int64(code), 10)
	b = append(b, `,"details":{"violations":[`...)
	for i, m := range msgs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = appendEscaped(b, m)
		b = append(b, '"')
	}
	// The message is the prefix followed by the violations joined with
	// "; ", escaped piecewise: the separators are ASCII, so no escape
	// spans two pieces.
	b = append(b, `]},"kind":"Status","message":"`...)
	b = appendEscaped(b, message)
	for i, m := range msgs {
		if i > 0 {
			b = append(b, "; "...)
		}
		b = appendEscaped(b, m)
	}
	b = append(b, `","reason":"`...)
	b = appendEscaped(b, reason)
	return append(b, "\",\"status\":\"Failure\"}\n"...)
}

// appendEscaped appends s as the inside of a JSON string the way
// encoding/json writes it with HTML escaping on: quote, backslash and
// the short control escapes, \u00XX for other control bytes and for
// <, > and &, \u2028 and \u2029, and \ufffd for each invalid UTF-8 byte.
func appendEscaped(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}

// forward relays the request upstream through its pooled outbound
// request, asserting the original caller via front-proxy headers. The
// Request is recycled once both the transport has closed the forwarded
// body and the upstream response has been relayed and closed.
func (p *Proxy) forward(w http.ResponseWriter, q *Request, user string, groups []string) {
	out := q.outbound(p, user, groups)
	if len(q.body) > 0 {
		q.fwd.Reset(q.body)
		q.refs.Add(1) // dropped by the transport's Close of the body
		out.Body, out.ContentLength = &q.fwd, int64(len(q.body))
	}
	resp, err := p.transport.RoundTrip(out)
	if err != nil {
		q.unref()
		http.Error(w, "upstream error: "+err.Error(), http.StatusBadGateway)
		return
	}
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	resp.Body.Close()
	q.unref()
}
