package proxy

import (
	"bytes"
	"io"
	"net/http"
	"net/textproto"
	"net/url"
	"sync"
	"sync/atomic"

	"repro/internal/compile"
	"repro/internal/object"
)

// maxInspectBytes bounds the request body the proxy is willing to
// buffer for inspection. Larger bodies are denied, not truncated: a
// truncated parse could silently validate a prefix of the attacker's
// actual object.
const maxInspectBytes = 4 << 20

// maxPooledBody caps the body buffers the pool retains; a rare 4 MiB
// body should not pin 4 MiB per pool slot forever.
const maxPooledBody = 256 << 10

// Request is one admission request, read, routed and scanned once.
// Classify reads the body into a pooled buffer and routes its content
// type; the streaming meta scan, and the decode when the scanner cannot
// vouch for the body, each run at most once, on first use. A tier's
// front door routes on Target and hands the same Request to a replica's
// Admit, so routing and judging share one scan.
//
// A Request also carries the pooled state it is forwarded with (the
// outbound request, its URL, header map and body reader), so the
// steady-state admission path allocates nothing of its own. Admit
// consumes the Request; one that is not admitted must be released with
// Release. Neither the Request nor any slice it returned may be used
// afterwards.
type Request struct {
	classified

	// Pooled storage, reused across requests.
	buf  bytes.Buffer
	lr   io.LimitedReader
	out  http.Request
	url  url.URL
	hdr  http.Header
	vals []string // backing array of hdr's value slices
	fwd  forwardBody
	// refs counts the holders that must let go before the Request is
	// recycled: its owner, plus the transport while it holds the
	// forwarded body (http.RoundTripper contract: the transport closes
	// the body, possibly on another goroutine after RoundTrip returns).
	refs atomic.Int32
}

// classified is the per-request part of a Request, zeroed on recycle.
type classified struct {
	r    *http.Request
	body []byte
	err  error // body read failure
	// format is the body's content-type route; typed is false when the
	// request is not inspected or its content type is unsupported.
	format bodyFormatKind
	typed  bool

	scanDone, scanned bool
	meta              compile.RawMeta

	decodeDone bool
	obj        object.Object
	decodeErr  error

	// target holds Target's namespace and kind when they are not views
	// of the body.
	target []byte
}

// forwardBody is the outbound request body: a reader over the pooled
// body bytes whose first Close drops the transport's reference.
type forwardBody struct {
	bytes.Reader
	q      *Request
	closed atomic.Bool
}

func (b *forwardBody) Close() error {
	if b.closed.CompareAndSwap(false, true) {
		b.q.unref()
	}
	return nil
}

var requestPool = sync.Pool{New: func() any {
	q := &Request{hdr: http.Header{}}
	q.fwd.q = q
	return q
}}

// Classify reads r's body (bounded by the inspection limit) into a
// pooled buffer and routes its content type. It closes r.Body once read;
// a read failure is kept for Admit to deny.
func Classify(r *http.Request) *Request {
	q := requestPool.Get().(*Request)
	q.refs.Store(1)
	q.r = r
	if r.Body != nil {
		q.lr = io.LimitedReader{R: r.Body, N: maxInspectBytes + 1}
		_, err := q.buf.ReadFrom(&q.lr)
		q.lr.R = nil
		if err != nil {
			q.err = err
			return q
		}
		r.Body.Close()
		q.body = q.buf.Bytes()
	}
	if inspectable(r.Method) && len(q.body) > 0 {
		q.format, q.typed = bodyFormat(r.Header.Get("Content-Type"))
	}
	return q
}

// inspected reports whether the body is judged: an inspectable method
// with a body of a supported content type within the inspection limit.
func (q *Request) inspected() bool {
	return q.typed && len(q.body) <= maxInspectBytes
}

// scan returns the streaming scanner's routing metadata of the body,
// scanning it on the first call only. ok is false when the scanner
// cannot vouch for the body.
func (q *Request) scan() (compile.RawMeta, bool) {
	if !q.scanDone {
		q.scanDone = true
		if q.format == formatYAML {
			q.meta, q.scanned = compile.ScanRawYAMLMeta(q.body)
		} else {
			q.meta, q.scanned = compile.ScanRawMeta(q.body)
		}
	}
	return q.meta, q.scanned
}

// object returns the decoded body, decoding it on the first call only.
func (q *Request) object() (object.Object, error) {
	if !q.decodeDone {
		q.decodeDone = true
		q.obj, q.decodeErr = decodeObject(q.body, q.format)
	}
	return q.obj, q.decodeErr
}

// Target returns the namespace and kind a proxy resolves the request's
// workload policy by, for callers that must route a request the same
// way its replica will judge it (a tier's front door). For an inspected
// body these are the body's own metadata.namespace and kind: the
// streaming scanner's view, or the decode's when the scanner cannot
// vouch for the body. The URL path's namespace fills an empty one.
// Uninspected requests, unsupported content types and undecodable bodies
// yield only the path namespace. The slices are valid until the Request
// is admitted or released.
func (q *Request) Target() (namespace, kind []byte) {
	if q.inspected() {
		if meta, ok := q.scan(); ok {
			namespace, kind = meta.Namespace, meta.Kind
		} else if obj, err := q.object(); err == nil {
			ns := obj.Namespace()
			q.target = append(append(q.target[:0], ns...), obj.Kind()...)
			namespace, kind = q.target[:len(ns):len(ns)], q.target[len(ns):]
		}
	}
	if len(namespace) == 0 {
		at := len(q.target)
		q.target = append(q.target, requestNamespace(q.r.URL.Path)...)
		namespace = q.target[at:]
	}
	return namespace, kind
}

// Path returns the request's URL path.
func (q *Request) Path() string { return q.r.URL.Path }

// Err returns the error that cut the body read short, if any.
func (q *Request) Err() error { return q.err }

// Release recycles a Request that will not be admitted.
func (q *Request) Release() { q.unref() }

// unref drops one reference and recycles the Request with the last.
func (q *Request) unref() {
	if q.refs.Add(-1) != 0 {
		return
	}
	q.classified = classified{target: q.target[:0]}
	// Zeroing the outbound request drops the context and header
	// references it carried.
	q.out = http.Request{}
	q.url = url.URL{}
	clear(q.hdr)
	clear(q.vals)
	q.vals = q.vals[:0]
	q.fwd.Reset(nil)
	q.fwd.closed.Store(false)
	if q.buf.Cap() > maxPooledBody {
		q.buf = bytes.Buffer{}
	} else {
		q.buf.Reset()
	}
	requestPool.Put(q)
}

// outbound fills the pooled outbound request: q's method, path and
// query against the upstream, r's context, and the caller's headers with
// the identity headers replaced. The body is left to the caller.
func (q *Request) outbound(p *Proxy, user string, groups []string) *http.Request {
	r := q.r
	q.url = *p.upstream
	q.url.Path = p.upstream.Path + r.URL.Path
	q.url.RawPath = ""
	q.url.RawQuery = r.URL.RawQuery

	for k, vs := range r.Header {
		// Strip identity headers a client might try to smuggle.
		if k == "X-Forwarded-User" || k == "X-Forwarded-Group" || k == "X-Remote-User" || k == "X-Remote-Group" {
			continue
		}
		q.addHeader(textproto.CanonicalMIMEHeaderKey(k), vs...)
	}
	delete(q.hdr, "X-Forwarded-User")
	q.addHeader("X-Forwarded-User", user)
	q.addHeader("X-Forwarded-Group", groups...)
	if p.proxyUser != "" {
		delete(q.hdr, "X-Remote-User")
		q.addHeader("X-Remote-User", p.proxyUser)
	}

	// Struct assignment is the one allocation-free way to carry r's
	// context, an unexported field, into the outbound request. The
	// other fields are then set the way http.NewRequestWithContext sets
	// them for a bodiless request. Besides the context, only the
	// deprecated Cancel channel (honored like the context) and the
	// server's route-match state (no transport reads it)
	// carry over.
	out := &q.out
	*out = *r
	out.URL = &q.url
	out.Proto, out.ProtoMajor, out.ProtoMinor = "HTTP/1.1", 1, 1
	out.Header = q.hdr
	out.Body, out.GetBody, out.ContentLength = nil, nil, 0
	out.TransferEncoding, out.Close, out.Host = nil, false, p.upstreamHost
	out.Form, out.PostForm, out.MultipartForm, out.Trailer = nil, nil, nil, nil
	out.RemoteAddr, out.RequestURI, out.TLS, out.Response = "", "", nil, nil
	return out
}

// addHeader appends values to an outbound header, as Header.Add does
// one by one, with new value slices cut from the pooled backing array.
func (q *Request) addHeader(key string, vs ...string) {
	if len(vs) == 0 {
		return
	}
	if cur, ok := q.hdr[key]; ok {
		// Full slice: the append copies and never overwrites a neighbor.
		q.hdr[key] = append(cur, vs...)
		return
	}
	n := len(q.vals)
	q.vals = append(q.vals, vs...)
	q.hdr[key] = q.vals[n:len(q.vals):len(q.vals)]
}
