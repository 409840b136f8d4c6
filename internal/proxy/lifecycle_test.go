package proxy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/object"
)

// slowEchoTransport echoes the request body back like echoTransport but
// reads it in small chunks with scheduler yields between them, widening
// the window in which a prematurely recycled pooled buffer (returned to
// the request pool while the upstream read is still in flight) would be
// observed as a mangled echo — and as a data race under -race.
type slowEchoTransport struct{}

func (slowEchoTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	var buf bytes.Buffer
	if r.Body != nil {
		chunk := make([]byte, 64)
		for {
			n, err := r.Body.Read(chunk)
			buf.Write(chunk[:n])
			runtime.Gosched()
			if err != nil {
				break
			}
		}
		r.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{},
		Body:       io.NopCloser(&buf),
	}, nil
}

// brokenReader fails mid-stream after yielding a JSON prefix, modeling a
// client disconnect while the proxy buffers the body.
type brokenReader struct{ sent bool }

func (b *brokenReader) Read(p []byte) (int, error) {
	if !b.sent {
		b.sent = true
		return copy(p, `{"kind":"ConfigMap","met`), nil
	}
	return 0, errors.New("connection reset mid-body")
}

// TestBodyBufferLifecycleUnderRace hammers every early-return path of
// the inspection pipeline concurrently with allowed traffic whose echo
// is byte-compared against the original body. A pooled buffer released
// on the wrong side of an early return (oversized 413, mid-stream
// disconnect, unsupported type, policy denial, raw-path denial) gets
// recycled into a concurrent request and shows up here as either a
// corrupted echo or a -race report. The async sink runs with a tiny
// ring and a slow consumer so overflow drops exercise the sink-flush
// failure path at the same time.
func TestBodyBufferLifecycleUnderRace(t *testing.T) {
	pol := testPolicy(t)
	p, err := New(Config{
		Upstream:   "http://upstream.invalid",
		Transport:  slowEchoTransport{},
		Validator:  pol,
		SinkBuffer: 2,
		OnViolation: func(ViolationRecord) {
			time.Sleep(50 * time.Microsecond) // force ring overflow under load
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	goodJSON, err := json.Marshal(goodDeployment())
	if err != nil {
		t.Fatal(err)
	}
	badJSON, err := json.Marshal(badDeployment())
	if err != nil {
		t.Fatal(err)
	}
	goodObj := goodDeployment()
	// Keep the YAML body on the raw fast path: the encoder renders
	// float64(2) as "2.0", which the matcher refuses to vouch for
	// against an int-typed cell.
	if err := object.Set(goodObj, "spec.replicas", int64(2)); err != nil {
		t.Fatal(err)
	}
	goodYAML, err := goodObj.MarshalYAML()
	if err != nil {
		t.Fatal(err)
	}
	oversized := []byte(`{"kind":"ConfigMap","data":{"blob":"` +
		strings.Repeat("A", maxInspectBytes) + `"}}`)

	const target = "/apis/apps/v1/namespaces/default/deployments"
	send := func(contentType string, body io.Reader) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, target, body)
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, req)
		return rec
	}

	const goroutines = 8
	const perG = 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				switch i % 6 {
				case 0: // allowed JSON through the raw fast path; echo must be intact
					rec := send("application/json", bytes.NewReader(goodJSON))
					if rec.Code != http.StatusOK {
						errs <- fmt.Errorf("allowed JSON denied: %d", rec.Code)
					} else if !bytes.Equal(rec.Body.Bytes(), goodJSON) {
						errs <- fmt.Errorf("JSON echo corrupted: pooled buffer recycled while upstream read in flight")
					}
				case 1: // allowed YAML through the raw fast path; echo must be intact
					rec := send("application/yaml", bytes.NewReader(goodYAML))
					if rec.Code != http.StatusOK {
						errs <- fmt.Errorf("allowed YAML denied: %d", rec.Code)
					} else if !bytes.Equal(rec.Body.Bytes(), goodYAML) {
						errs <- fmt.Errorf("YAML echo corrupted: pooled buffer recycled while upstream read in flight")
					}
				case 2: // policy denial (403), buffer released on the deny path
					if rec := send("application/json", bytes.NewReader(badJSON)); rec.Code != http.StatusForbidden {
						errs <- fmt.Errorf("violating body not denied: %d", rec.Code)
					}
				case 3: // oversized body (413)
					if rec := send("application/json", bytes.NewReader(oversized)); rec.Code != http.StatusRequestEntityTooLarge {
						errs <- fmt.Errorf("oversized body: %d, want 413", rec.Code)
					}
				case 4: // mid-stream disconnect (400)
					if rec := send("application/json", &brokenReader{}); rec.Code != http.StatusBadRequest {
						errs <- fmt.Errorf("broken body: %d, want 400", rec.Code)
					}
				case 5: // unsupported media type (415)
					if rec := send("application/xml", bytes.NewReader(goodJSON)); rec.Code != http.StatusUnsupportedMediaType {
						errs <- fmt.Errorf("xml body: %d, want 415", rec.Code)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if !p.FlushSinks(5 * time.Second) {
		t.Error("async sink did not drain after the hammer")
	}
	p.CloseSinks()
	stats := p.SinkStats()
	if stats.Delivered == 0 {
		t.Error("async sink delivered nothing; violation records lost entirely")
	}
	// Drops are expected (tiny ring, slow consumer) — the invariant is
	// accounting, not zero loss: every enqueued event is either
	// delivered or counted dropped.
	if got := stats.Delivered + stats.Dropped; got != stats.Enqueued {
		t.Errorf("sink accounting leak: delivered %d + dropped %d != enqueued %d",
			stats.Delivered, stats.Dropped, stats.Enqueued)
	}
}

// lateTransport keeps using a forwarded request after RoundTrip returns,
// as the http.RoundTripper contract allows: a goroutine it starts reads
// the headers and the body late and only then closes the body. For a
// bodiless request it stops reading when the caller closes the
// response, the other event the contract makes the caller wait for.
type lateTransport struct {
	wg   *sync.WaitGroup
	errs chan<- error
}

func (t lateTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	probe := req.Header.Get("X-Probe")
	done := make(chan struct{})
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		defer close(done)
		runtime.Gosched()
		if got := req.Header.Get("X-Probe"); got != probe {
			t.errs <- fmt.Errorf("request %s: header read late says %q", probe, got)
		}
		if got := req.Header.Get("X-Forwarded-User"); got != "user-"+probe {
			t.errs <- fmt.Errorf("request %s: forwarded user read late is %q", probe, got)
		}
		if req.Body == nil {
			return
		}
		runtime.Gosched()
		body, err := io.ReadAll(req.Body)
		if err != nil {
			t.errs <- err
		}
		if want := `"replicas":` + probe + `,`; !strings.Contains(string(body), want) {
			t.errs <- fmt.Errorf("request %s: body read late lacks %s: %s", probe, want, body)
		}
		req.Body.Close()
	}()
	respBody := io.NopCloser(http.NoBody)
	if req.Body == nil {
		respBody = waitCloser{done}
	}
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: respBody}, nil
}

// waitCloser is a response body whose Close waits for the transport to
// finish with the request.
type waitCloser struct{ done <-chan struct{} }

func (waitCloser) Read([]byte) (int, error) { return 0, io.EOF }
func (w waitCloser) Close() error {
	<-w.done
	return nil
}

// TestForwardStateOutlivesRoundTrip checks that pooled forward state
// (outbound request, header map, body reader, body buffer) is recycled
// only after the transport has closed the body and the proxy has closed
// the response, never as soon as RoundTrip returns. A request recycled
// early is reused by a concurrent one: the late reads then see another
// request's header or body, and -race reports the overlap.
func TestForwardStateOutlivesRoundTrip(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 1024)
	p, err := New(Config{
		Upstream:  "http://upstream.invalid",
		Transport: lateTransport{wg: &wg, errs: errs},
		Validator: testPolicy(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 50
	var senders sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		senders.Add(1)
		go func(g int) {
			defer senders.Done()
			for i := 0; i < perG; i++ {
				probe := fmt.Sprint(g*perG + i + 1)
				method, body := http.MethodGet, io.Reader(nil)
				if i%2 == 0 {
					d := goodDeployment()
					_ = object.Set(d, "spec.replicas", int64(g*perG+i+1))
					js, err := json.Marshal(d)
					if err != nil {
						errs <- err
						return
					}
					method, body = http.MethodPost, bytes.NewReader(js)
				}
				req := httptest.NewRequest(method, "/apis/apps/v1/namespaces/default/deployments", body)
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set("X-Remote-User", "user-"+probe)
				req.Header.Set("X-Probe", probe)
				rec := httptest.NewRecorder()
				p.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("request %s answered %d: %s", probe, rec.Code, rec.Body)
				}
			}
		}(g)
	}
	senders.Wait()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
