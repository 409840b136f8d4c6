package main

import (
	"context"
	"math/bits"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/registry"
)

// mix is a workload's request shape.
type mix struct {
	readPct   int // share of requests that are GET reads
	attackPct int // share of writes that are attacks
	yamlPct   int // share of writes on the YAML wire
	driftPct  int // share of writes stamped with a fresh name (new body)
	// swapEvery / rebalanceEvery run a policy publish / a rebalance
	// inline every N requests of each client (0 = never).
	swapEvery      uint64
	rebalanceEvery uint64
}

// window is the length of one measurement window; the e2e figures are
// medians across the windows of a run.
const window = time.Second

// client is one closed-loop sender: it sends its next request only when
// the previous one has completed.
type client struct {
	rng  *rand.Rand
	mix  mix
	cps  *corpus
	h    http.Handler
	ctl  *control
	tr   *tracer
	reqs map[reqKey]*http.Request

	body    bodyReader
	stamp   []byte
	rec     *recorder
	counter uint64

	// Tallies over every request the client sent. invalidated counts
	// writes whose body was last sent before its workload's latest
	// publish: writes that land on a freshly invalidated cache shard.
	sent, reads, benign, attacks, forwarded uint64
	failed, invalidated                     uint64
	failures                                []string

	// Per-window latency histograms and completions of the measured
	// phase.
	lat  []histogram
	done []uint64

	upNs int64 // upstream span of the request in flight (traced runs)
	ok   bool  // verdict of the last request
}

type reqKey struct {
	t    *template
	read string
}

func newClient(id, nclients int, seed int64, m mix, cps *corpus, h http.Handler) *client {
	c := &client{
		rng:  rand.New(rand.NewSource(seed*1_000_003 + int64(id))),
		mix:  m,
		cps:  cps,
		h:    h,
		reqs: map[reqKey]*http.Request{},
		rec:  newRecorder(),
	}
	// Disjoint stamp ranges per client; the seed moves the start so
	// seeds never share a stamped body.
	span := uint64(10_000_000_000) / uint64(nclients)
	c.counter = uint64(id)*span + uint64(seed%1000)*1_000_000
	return c
}

// request returns the client's reusable request for a template or read.
func (c *client) request(k reqKey, user string) *http.Request {
	if r, ok := c.reqs[k]; ok {
		return r
	}
	var r *http.Request
	ctx := context.WithValue(context.Background(), clientKey{}, c)
	if k.t == nil {
		r, _ = http.NewRequestWithContext(ctx, http.MethodGet, k.read, nil)
	} else {
		r, _ = http.NewRequestWithContext(ctx, k.t.method, k.t.path, nil)
		ct := "application/json"
		if k.t.yaml {
			ct = "application/yaml"
		}
		r.Header.Set("Content-Type", ct)
	}
	r.Header.Set("X-Remote-User", user)
	c.reqs[k] = r
	return r
}

// pick draws the next request from the mix.
func (c *client) pick() (set *workloadSet, t *template, read string, stamped bool) {
	set = &c.cps.workloads[c.cps.zipfPick(c.rng)]
	if c.rng.Intn(100) < c.mix.readPct {
		return set, nil, set.reads[c.rng.Intn(len(set.reads))], false
	}
	f := 0
	if c.rng.Intn(100) < c.mix.yamlPct {
		f = 1
	}
	pool := set.benign[f]
	if c.rng.Intn(100) < c.mix.attackPct {
		pool = set.attack[f]
	}
	t = pool[c.rng.Intn(len(pool))]
	stamped = c.mix.driftPct >= 100 || c.rng.Intn(100) < c.mix.driftPct
	return set, t, "", stamped
}

// send sends one request and checks its verdict. It returns the wall
// time of the ServeHTTP call.
func (c *client) send() time.Duration {
	set, t, read, stamped := c.pick()
	req := c.request(reqKey{t: t, read: read}, set.user)
	var body []byte
	if t != nil {
		body = t.body
		if stamped {
			c.stamp = append(c.stamp[:0], t.stampBody...)
			writeStamp(c.stamp[t.stampAt:t.stampAt+stampDigits], c.counter)
			c.counter++
			body = c.stamp
		} else {
			g := set.pubs.Load() + 1
			if prev := t.seen.Swap(g); prev != 0 && prev != g {
				c.invalidated++
			}
		}
		c.body.Reset(body)
		req.Body = &c.body
		req.ContentLength = int64(len(body))
	} else {
		req.Body = nil
		req.ContentLength = 0
	}
	c.rec.reset()
	c.upNs = 0
	if c.tr != nil && c.tr.calibrate {
		c.tr.calStart = mallocs()
	}

	t0 := time.Now()
	c.h.ServeHTTP(c.rec, req)
	el := time.Since(t0)

	c.sent++
	var ok bool
	switch {
	case t == nil:
		c.reads++
		ok = c.rec.code == http.StatusOK
	case t.attack:
		c.attacks++
		ok = c.rec.code == http.StatusForbidden && hasViolations(c.rec.body.Bytes())
	default:
		c.benign++
		ok = c.rec.code >= 200 && c.rec.code < 300
	}
	c.ok = ok
	if !ok {
		c.failed++
		if len(c.failures) < 8 {
			what := "read " + read
			if t != nil {
				what = t.method + " " + t.path
				if t.attack {
					what = "attack " + what
				}
			}
			c.failures = append(c.failures, what+" -> "+http.StatusText(c.rec.code)+": "+trim(c.rec.body.String(), 200))
		}
	}
	if c.tr != nil {
		c.tr.replay(c, t, body, el, c.rec.code)
	}
	return el
}

func trim(s string, n int) string {
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}

func writeStamp(dst []byte, n uint64) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = '0' + byte(n%10)
		n /= 10
	}
}

// control runs the inline control actions: policy publishes and, on a
// tier, rebalances. A tier publish alternates a served workload between
// verdict-equivalent copies of its policy.
type control struct {
	sys   *system
	cps   *corpus
	order []int
	seq   atomic.Uint64
	twin  *registry.Registry // traced runs: mirrors every publish
	// onMove observes each shard move of a rebalance, under mu.
	onMove func(workloads []string, handoff int)

	mu         sync.Mutex
	cur        []int // policy copy each workload is served under
	swapNs     []int64
	rebNs      []int64
	rebalances int
	moves      int
	swapErrs   int
}

func newControl(sys *system, cps *corpus, seed int64) *control {
	rng := rand.New(rand.NewSource(seed*31 + 7))
	return &control{sys: sys, cps: cps, order: rng.Perm(len(sys.ws)), cur: make([]int, len(sys.ws))}
}

// current reports which policy copy workload i is served under.
func (ct *control) current(i int) int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.cur[i]
}

// swap publishes the next workload's alternate policy copy.
func (ct *control) swap() {
	n := ct.seq.Add(1)
	w := ct.order[int(n)%len(ct.order)]
	// Every workload is published in turn; its copy alternates on each
	// full cycle through the order.
	copyIdx := int(n/uint64(len(ct.order))) % 2
	v := ct.sys.pols[w][copyIdx]
	name := ct.sys.ws[w].Name
	if ct.sys.pl == nil {
		// A lone proxy publishes to the probe entry, which no request
		// addresses: a publish under load that invalidates no decision.
		name = probeWorkload
	} else {
		ct.mu.Lock()
		ct.cur[w] = copyIdx
		ct.mu.Unlock()
	}
	t0 := time.Now()
	var err error
	if ct.sys.pl != nil {
		err = ct.sys.pl.Swap(name, v)
	} else {
		err = ct.sys.reg.Swap(name, v)
	}
	el := time.Since(t0)
	if ct.sys.pl != nil {
		ct.cps.workloads[w].pubs.Add(1)
	}
	if ct.twin != nil {
		_ = ct.twin.Swap(name, v)
	}
	ct.mu.Lock()
	ct.swapNs = append(ct.swapNs, int64(el))
	if err != nil {
		ct.swapErrs++
	}
	ct.mu.Unlock()
}

func (ct *control) rebalance() {
	if ct.sys.pl == nil {
		return
	}
	t0 := time.Now()
	rep, err := ct.sys.pl.Rebalance()
	el := time.Since(t0)
	ct.mu.Lock()
	ct.rebNs = append(ct.rebNs, int64(el))
	ct.rebalances++
	if err != nil {
		ct.swapErrs++
	}
	ct.moves += len(rep.Moves)
	if ct.onMove != nil {
		for _, mv := range rep.Moves {
			ct.onMove(mv.Workloads, mv.HandoffEntries)
		}
	}
	ct.mu.Unlock()
}

// phase drives every client in a closed loop until the deadline (when
// dur > 0) or until each has sent count requests. Measured phases record
// per-window latency samples and completions.
func phase(clients []*client, dur time.Duration, count uint64, measured bool) {
	var wg sync.WaitGroup
	start := time.Now()
	nwin := int(dur / window)
	if dur%window != 0 {
		nwin++
	}
	for _, c := range clients {
		if measured {
			c.lat = make([]histogram, nwin)
			c.done = make([]uint64, nwin)
		}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var i uint64
			for {
				if c.ctl != nil {
					if c.mix.swapEvery > 0 && c.sent%c.mix.swapEvery == c.mix.swapEvery-1 {
						c.ctl.swap()
					}
					if c.mix.rebalanceEvery > 0 && c.sent%c.mix.rebalanceEvery == c.mix.rebalanceEvery-1 {
						c.ctl.rebalance()
					}
				}
				el := c.send()
				i++
				if dur > 0 {
					at := time.Since(start)
					if at >= dur {
						return
					}
					if measured {
						k := int(at / window)
						ns := el.Nanoseconds()
						if ns > 1<<32-1 {
							ns = 1<<32 - 1
						}
						c.lat[k].add(uint32(ns))
						if c.ok {
							c.done[k]++
						}
					}
				} else if i >= count {
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// windowStats merges the clients' samples per window and returns, for
// each full window, its throughput and latency quantiles.
func windowStats(clients []*client) (rps, p50, p99 []float64, samples int) {
	nwin := len(clients[0].done)
	for k := 0; k < nwin; k++ {
		var lat histogram
		var n, done uint64
		for _, c := range clients {
			for b, x := range c.lat[k] {
				lat[b] += x
				n += uint64(x)
			}
			done += c.done[k]
		}
		if n == 0 {
			continue
		}
		samples += int(n)
		rps = append(rps, float64(done)/window.Seconds())
		p50 = append(p50, lat.quantile(n, 0.50)/1e3)
		p99 = append(p99, lat.quantile(n, 0.99)/1e3)
	}
	return rps, p50, p99, samples
}

// histogram counts latencies in log-linear buckets: exact below 64 ns,
// then 64 buckets per power of two (each under 1.6% wide). A run's
// samples take fixed memory allocated before the measured phase, so the
// harness adds no live heap as the run goes on.
type histogram [histBuckets]uint32

const (
	histSub     = 6
	histBuckets = (32 - histSub + 1) << histSub
)

func (h *histogram) add(ns uint32) {
	if ns < 1<<histSub {
		h[ns]++
		return
	}
	shift := bits.Len32(ns) - histSub - 1
	h[(shift+1)<<histSub+int(ns>>shift)-1<<histSub]++
}

// bucket returns the lowest value and the width of bucket b.
func bucket(b int) (lo, width float64) {
	if b < 1<<histSub {
		return float64(b), 1
	}
	shift := b>>histSub - 1
	return float64((1<<histSub + b&(1<<histSub-1)) << shift), float64(uint64(1) << shift)
}

// quantile interpolates the q-quantile of the n counted samples, taking
// the samples of a bucket as evenly spread across it.
func (h *histogram) quantile(n uint64, q float64) float64 {
	rank := q * float64(n-1)
	var cum float64
	for b, c := range h {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			lo, width := bucket(b)
			return lo + (rank-cum+0.5)/float64(c)*width
		}
		cum += float64(c)
	}
	lo, width := bucket(histBuckets - 1)
	return lo + width
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func medianInt64(xs []int64) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return median(f)
}
