package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/compile"
	"repro/internal/registry"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// ledgerTolerance bounds the unattributed share of allowed writes: the
// median residual proxy time of an allowed write may exceed that of a
// read (the passthrough plumbing every request pays) by at most this
// share of the write's median admit span, or the ledger is missing a
// layer. Replayed layers run right after the real call, on warm CPU
// caches, so even a complete ledger leaves an excess of 13-22% of admit;
// any single layer of the allowed-write path (scan, cache lookup, match)
// is a larger share than the margin left above that.
const ledgerTolerance = 0.25

// Traced-run sizing: warm-up requests per client that prime the twin,
// allocation-calibration requests, span records kept per client, and the
// requests per client of the plane probe on workloads without a tier.
const (
	tracedWarm   = 10000
	calibration  = 2000
	keepSpans    = 2500
	probeRequest = 15000
)

// report carries everything one run measured.
type report struct {
	opts     options
	spec     spec
	nclients int
	setup    setupTimes
	setups   []setupTimes
	heapMB   float64
	// invalidated is the share of writes that landed on a freshly
	// invalidated cache shard.
	invalidated float64

	samples, windows int
	windowRPS        []float64
	publishes        int
	rebalances       int
	moves            int
	e2e              map[string]metric
	layers           map[string]metric
	ledger           []string
	ledgerMiss       string    // names the missing layer when the ledger does not reconcile
	extra            []*client // calibration sender, reconciled with the main clients
	checks           []string
	spans            []spanRecord
}

// runTraced measures untraced throughput, then the traced replay, then
// allocation calibration, and derives the per-layer ledger.
func runTraced(o options, sp spec, sys *system, cps *corpus, clients []*client, ctl *control, rep *report) error {
	half := time.Duration(o.seconds) * time.Second / 2
	phase(clients, half, 0, true)
	untraced, _, _, _ := windowStats(clients)

	twin, err := twinRegistry(sys, ctl)
	if err != nil {
		return err
	}
	hub := telemetry.New(telemetry.Config{SampleEvery: sampleEvery})
	timerNs := timerCost()
	if ctl != nil {
		ctl.twin = twin
	}
	attach := func(keep int) {
		for _, c := range clients {
			c.tr = newTracer(twin, hub, sp.tier, timerNs, keep)
		}
	}
	attach(0)
	phase(clients, 0, tracedWarm, false)
	attach(keepSpans)
	if ctl != nil {
		ctl.resetSamples()
	}
	fdN0, fdNs0 := sys.frontDoor()
	_, _, hits0 := sys.registryTotals()
	insp0 := sys.proxyMetrics().Inspected
	phase(clients, half, 0, true)
	traced, _, _, _ := windowStats(clients)
	fdN1, fdNs1 := sys.frontDoor()
	_, _, hits1 := sys.registryTotals()
	insp1 := sys.proxyMetrics().Inspected

	tr := newTracer(twin, hub, sp.tier, timerNs, 0)
	for _, c := range clients {
		tr.merge(c.tr)
		c.tr = nil
	}
	rep.spans = tr.spans

	// Allocation calibration: one sender, memory statistics read around
	// every ServeHTTP call and every replay.
	cc := newClient(len(clients), len(clients)+1, o.seed, sp.mix, cps, sys.handler)
	cc.tr = newTracer(twin, hub, sp.tier, timerNs, 0)
	cc.tr.calibrate = true
	var admitAllocs, childAllocs int64
	for i := 0; i < calibration; i++ {
		cc.send()
		admitAllocs += int64(cc.tr.calAdmit)
		childAllocs += int64(cc.tr.calChild)
	}
	rep.extra = append(rep.extra, cc)

	L := map[string]metric{}
	ns := func(name string, v float64) { L[name] = metric{v, "ns"} }
	n := func(k int) float64 { return float64(max(tr.cls[k].n, 1)) }

	// Front-door routing time from the tier's own telemetry; its meta
	// scan was replayed as plane.route, the rest stays in the residual.
	var planeSelf, frontRest float64
	// Shard moves and hot-set retention come from the probe, a fresh tier
	// settling under this traffic: a settled tier seldom moves a shard, so
	// a traced window of one often has no move to count.
	planeM, err := planeProbe(o, sp, cps, rep)
	if err != nil {
		return err
	}
	if sp.tier {
		planeSelf = float64(fdNs1-fdNs0) / float64(max(fdN1-fdN0, 1))
		var total int64
		for _, k := range tr.cls {
			total += k.n
		}
		frontRest = planeSelf - float64(tr.route.ns)/float64(max(total, 1))
		for k, v := range planeMetrics(planeSelf, ctl) {
			planeM[k] = v
		}
	}
	for k, v := range planeM {
		L[k] = v
	}

	var totalN, totalSelf int64
	for _, k := range tr.cls {
		totalN += k.n
		totalSelf += k.self
	}
	ns("proxy.self_ns", float64(totalSelf+tr.body.ns)/float64(max(totalN, 1))-frontRest)
	ns("proxy.body_ns", tr.body.mean())
	ns("proxy.passthrough_ns", float64(tr.cls[clsRead].self)/n(clsRead)-frontRest)
	ns("proxy.deny_ns", float64(tr.cls[clsDenied].self)/n(clsDenied)-frontRest)
	L["proxy.allocs_per_req"] = metric{float64(admitAllocs-childAllocs-int64(cc.forwarded)) / calibration, "count"}
	for f, name := range []string{"json", "yaml"} {
		ns("compile.scan_"+name+"_ns", tr.scan[f].mean())
		L["compile.scan_"+name+"_mbps"] = metric{tr.scan[f].mbps(), "MB/s"}
		ns("compile.match_"+name+"_ns", tr.match[f].mean())
		L["compile.match_"+name+"_mbps"] = metric{tr.match[f].mbps(), "MB/s"}
		ns("object.decode_"+name+"_ns", tr.decode[f].mean())
	}
	L["compile.vouch_ratio"] = metric{ratio(tr.vouched, tr.eligible), "ratio"}
	ns("compile.diagnose_ns", tr.diagnose.mean())
	ns("registry.resolve_ns", tr.resolve.mean())
	var lookup acc
	lookup.merge(tr.lookup)
	lookup.merge(tr.regMiss)
	ns("registry.cache_lookup_ns", lookup.mean())
	L["registry.cache_miss_ratio"] = metric{1 - ratio(int64(hits1-hits0), int64(insp1-insp0)), "ratio"}
	ns("registry.validate_ns", tr.regValidate.mean())
	L["object.decode_allocs"] = metric{float64(cc.tr.decodeAllocs) / float64(max(cc.tr.decodes, 1)), "count"}
	L["object.decode_share"] = metric{ratio(tr.decode[0].n+tr.decode[1].n, tr.writes), "ratio"}
	ns("telemetry.record_ns", tr.record.mean())
	L["setup.policy_s"] = metric{rep.setup.policy.Seconds(), "s"}
	L["setup.register_s"] = metric{rep.setup.register.Seconds(), "s"}
	L["setup.boot_s"] = metric{rep.setup.boot.Seconds(), "s"}
	ur, trr := median(untraced), median(traced)
	L["trace.untraced_rps"] = metric{ur, "1/s"}
	L["trace.traced_rps"] = metric{trr, "1/s"}
	L["trace.throughput_ratio"] = metric{trr / ur, "ratio"}

	share, lines := ledger(tr, frontRest, planeSelf)
	L["ledger.unattributed_share"] = metric{share, "ratio"}
	rep.layers = L
	rep.ledger = lines
	if share > ledgerTolerance || share < -ledgerTolerance {
		rep.ledgerMiss = fmt.Sprintf(
			"allowed writes carry %.1f%% of their admit time beyond the passthrough residual (tolerance %.0f%%): missing layer on the %s path",
			100*share, 100*ledgerTolerance, worstClass(tr))
	}
	return nil
}

// ledger renders the per-class and per-layer self-time tables and returns
// the unattributed share of allowed writes: how far the median residual
// of an allowed write exceeds the median residual of a read (the
// passthrough plumbing every request pays), as a share of the allowed
// write's median admit span.
func ledger(tr *tracer, frontRest, planeSelf float64) (float64, []string) {
	var lines []string
	readSelf := median32(tr.cls[clsRead].selfs)
	var selfs, admits []int32
	for _, k := range []int{clsHit, clsVouched, clsDecoded} {
		selfs = append(selfs, tr.cls[k].selfs...)
		admits = append(admits, tr.cls[k].admits...)
	}
	share := 0.0
	if a := median32(admits); a > 0 {
		share = (median32(selfs) - readSelf) / a
	}
	lines = append(lines, "ledger classes (mean ns): class n admit upstream layers proxy_residual | median admit residual")
	for k, c := range tr.cls {
		if c.n == 0 {
			continue
		}
		f := float64(c.n)
		lines = append(lines, fmt.Sprintf("  %-10s %9d %9.0f %9.0f %9.0f %9.0f | %9.0f %9.0f",
			classNames[k], c.n, float64(c.admit)/f, float64(c.up)/f, float64(c.children)/f, float64(c.self)/f,
			median32(c.admits), median32(c.selfs)))
	}
	var total classAcc
	for _, c := range tr.cls {
		total.n += c.n
		total.admit += c.admit
		total.up += c.up
		total.self += c.self
	}
	reqs := float64(total.n)
	front := frontRest * reqs
	layers := []struct {
		name string
		ns   float64
	}{
		{"proxy", float64(total.self+tr.body.ns) - front},
		{"upstream", float64(total.up)},
		{"plane", float64(tr.route.ns) + front},
		{"compile", float64(tr.scan[0].ns + tr.scan[1].ns + tr.match[0].ns + tr.match[1].ns + tr.diagnose.ns)},
		{"registry", float64(tr.resolve.ns + tr.lookup.ns + tr.regMiss.ns + tr.regValidate.ns)},
		{"object", float64(tr.decode[0].ns + tr.decode[1].ns)},
		{"telemetry", float64(tr.record.ns)},
	}
	var sum float64
	lines = append(lines, "ledger layers (self time, share of admit):")
	for _, l := range layers {
		sum += l.ns
		lines = append(lines, fmt.Sprintf("  %-10s %8.0f ns/req %6.2f%%", l.name, l.ns/max(reqs, 1), 100*l.ns/max(float64(total.admit), 1)))
	}
	lines = append(lines, fmt.Sprintf("  sum of layers %.0f ns/req, admit %.0f ns/req; plane front door %.0f ns/req",
		sum/max(reqs, 1), float64(total.admit)/max(reqs, 1), planeSelf))
	lines = append(lines, fmt.Sprintf("  unattributed share of allowed writes %.2f%% (tolerance %.0f%%)", 100*share, 100*ledgerTolerance))
	return share, lines
}

// worstClass names the allowed-write class whose residual most exceeds
// the passthrough residual, with the layers that class adds.
func worstClass(tr *tracer) string {
	readSelf := median32(tr.cls[clsRead].selfs)
	layersOf := map[int]string{
		clsHit:     "cache-hit (compile scan, registry resolve, registry cache lookup)",
		clsVouched: "raw-vouched (compile scan and match, registry resolve and cache miss)",
		clsDecoded: "decode (object decode, registry validate, compile diagnose)",
	}
	best, worst := -1.0, "allowed-write"
	for k, what := range layersOf {
		c := tr.cls[k]
		if c.n == 0 {
			continue
		}
		ex := (median32(c.selfs) - readSelf) / max(median32(c.admits), 1)
		if ex > best {
			best, worst = ex, what
		}
	}
	return worst
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// retention measures how much of a migrated workload's hot set the
// handoff carried: handed-off entries over the current-generation entries
// the twin registry (fed the identical stream) holds for that workload at
// the move. Entries of superseded generations are not counted: a handoff
// never carries them.
type retention struct {
	got, want int
}

func (r *retention) observe(twin *registry.Registry) func([]string, int) {
	return func(ws []string, handoff int) {
		want := 0
		for _, w := range ws {
			if snap, err := twin.ExportCache(w); err == nil {
				want += len(snap.Entries)
			}
		}
		r.got += handoff
		r.want += want
	}
}

func (r *retention) value() float64 {
	if r.want == 0 {
		return 0
	}
	return min(float64(r.got)/float64(r.want), 1)
}

// planeMetrics gives a tier's front-door self time and its publish and
// rebalance medians.
func planeMetrics(self float64, ctl *control) map[string]metric {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	return map[string]metric{
		"plane.self_ns":      {self, "ns"},
		"plane.publish_us":   {medianInt64(ctl.swapNs) / 1e3, "us"},
		"plane.rebalance_us": {medianInt64(ctl.rebNs) / 1e3, "us"},
	}
}

// planeProbe sends a short traced burst of a workload's traffic through a
// freshly booted tier with the churn publish and rebalance cadence. It
// gives every workload its shard moves and hot-set retention, and a
// workload served by a lone proxy its other plane figures as well.
func planeProbe(o options, sp spec, cps *corpus, rep *report) (map[string]metric, error) {
	psys, _, err := bootSystem(o.seed, o.synth, true, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	defer psys.pl.Close()
	if err := psys.withCopies(); err != nil {
		return nil, err
	}
	ctl := newControl(psys, cps, o.seed)
	twin, err := twinRegistry(psys, ctl)
	if err != nil {
		return nil, err
	}
	var ret retention
	ctl.twin = twin
	ctl.onMove = ret.observe(twin)
	m := sp.mix
	m.swapEvery = workloads["churn"].mix.swapEvery
	m.rebalanceEvery = workloads["churn"].mix.rebalanceEvery
	hub := telemetry.New(telemetry.Config{SampleEvery: sampleEvery})
	clients := make([]*client, runtime.NumCPU())
	for i := range clients {
		clients[i] = newClient(i, len(clients)+1, o.seed+heldOutSeed, m, cps, psys.handler)
		clients[i].ctl = ctl
		clients[i].tr = newTracer(twin, hub, true, 0, 0)
	}
	n0, s0 := psys.frontDoor()
	phase(clients, 0, probeRequest, false)
	n1, s1 := psys.frontDoor()
	pm := planeMetrics(float64(s1-s0)/float64(max(n1-n0, 1)), ctl)
	pm["plane.moves"] = metric{float64(ctl.moves), "count"}
	pm["plane.retention"] = metric{ret.value(), "ratio"}
	if fails := reconcileSystem(psys, m, clients, ctl, "plane probe"); len(fails) > 0 {
		rep.checks = append(rep.checks, fails...)
	}
	var failed uint64
	for _, c := range clients {
		failed += c.failed
		rep.checks = append(rep.checks, c.failures...)
	}
	if failed > 0 {
		rep.checks = append(rep.checks, fmt.Sprintf("plane probe: %d wrong verdicts", failed))
	}
	return pm, nil
}

// twinRegistry builds a registry holding the policy each workload is
// served under right now.
func twinRegistry(sys *system, ctl *control) (*registry.Registry, error) {
	twin := registry.New(registry.Config{CacheSize: cacheSize})
	for i, w := range sys.ws {
		v := sys.pols[i][0]
		if ctl != nil {
			v = sys.pols[i][ctl.current(i)]
		}
		if _, err := twin.Register(w.Name, registry.Selector{Namespace: w.Name}, v); err != nil {
			return nil, err
		}
	}
	if sys.pl == nil {
		if _, err := twin.Register(probeWorkload, registry.Selector{Namespace: probeWorkload}, sys.pols[0][0]); err != nil {
			return nil, err
		}
	}
	return twin, nil
}

// checkCorpus verifies every synth pair and that each policy copy gives
// the original's exact verdict and violation list on every template.
func checkCorpus(sys *system, cps *corpus) error {
	for i := range sys.ws {
		if err := synth.Verify(&sys.ws[i]); err != nil {
			return fmt.Errorf("corpus: %w", err)
		}
		a, err := compile.Compile(sys.pols[i][0])
		if err != nil {
			return err
		}
		b, err := compile.Compile(sys.pols[i][1])
		if err != nil {
			return err
		}
		set := &cps.workloads[i]
		for f := 0; f < 2; f++ {
			for _, t := range append(append([]*template(nil), set.benign[f]...), set.attack[f]...) {
				for _, body := range [][]byte{t.body, t.stampBody} {
					obj, err := decodeBody(body, t.yaml)
					if err != nil {
						return fmt.Errorf("corpus: %s %s: %w", t.method, t.path, err)
					}
					va, vb := a.Validate(obj), b.Validate(obj)
					if fmt.Sprint(va) != fmt.Sprint(vb) {
						return fmt.Errorf("corpus: policy copy of %s is not verdict-equivalent on %s", set.name, t.path)
					}
					if !t.attack && len(va) > 0 {
						return fmt.Errorf("corpus: benign %s %s violates its own policy: %v", t.method, t.path, va)
					}
				}
			}
		}
	}
	return nil
}

// reconcile checks the clients' counts against the program's own
// counters, so a run that silently bypassed a layer fails.
func reconcile(sp spec, sys *system, clients []*client, ctl *control, rep *report) []string {
	all := append(append([]*client(nil), clients...), rep.extra...)
	fails := reconcileSystem(sys, sp.mix, all, ctl, rep.opts.workload)
	return append(rep.checks, fails...)
}

func reconcileSystem(sys *system, m mix, clients []*client, ctl *control, what string) []string {
	var fails []string
	expect := func(name string, got, want uint64) {
		if got != want {
			fails = append(fails, fmt.Sprintf("%s: %s = %d, the clients expect %d", what, name, got, want))
		}
	}
	var sentN, reads, benign, attacks, fwd uint64
	for _, c := range clients {
		sentN += c.sent
		reads += c.reads
		benign += c.benign
		attacks += c.attacks
		fwd += c.forwarded
	}
	pm := sys.proxyMetrics()
	expect("proxy requests", pm.Requests, sentN+sys.probes)
	expect("proxy inspected", pm.Inspected, benign+attacks)
	expect("proxy denied", pm.Denied, attacks)
	expect("forwarded upstream", fwd, reads+benign)
	if pm.RawAllowed > benign || pm.RawDenied > attacks {
		fails = append(fails, fmt.Sprintf("%s: raw verdicts (allowed %d, denied %d) exceed benign %d / attacks %d",
			what, pm.RawAllowed, pm.RawDenied, benign, attacks))
	}
	regReq, regDenied, hits := sys.registryTotals()
	if regReq > pm.Inspected || regDenied > pm.Denied || hits > regReq || hits < pm.RawDenied {
		fails = append(fails, fmt.Sprintf("%s: registry counters (requests %d, denied %d, hits %d) disagree with the proxy (inspected %d, denied %d, raw denied %d)",
			what, regReq, regDenied, hits, pm.Inspected, pm.Denied, pm.RawDenied))
	}
	if m.driftPct >= 100 {
		expect("cache hits (every body is new)", hits, 0)
	} else if float64(hits) < 0.5*float64(pm.Inspected) {
		fails = append(fails, fmt.Sprintf("%s: cache hits %d of %d inspected: the decision cache is bypassed", what, hits, pm.Inspected))
	}
	expect("telemetry decisions", sys.decisions(), pm.Inspected)
	if sys.pl != nil {
		tm := sys.pl.Metrics()
		expect("tier requests", tm.Requests, sentN+sys.probes)
		expect("tier shed", tm.Shed+tm.Unavailable, 0)
		expect("tier publishes in flight", tm.PublishesStarted-tm.PublishesCompleted, 0)
	}
	if ctl != nil && ctl.swapErrs > 0 {
		fails = append(fails, fmt.Sprintf("%s: %d control actions failed", what, ctl.swapErrs))
	}
	return fails
}

// result assembles the final line.
func (rep *report) result(clients []*client) *result {
	res := &result{Correct: true}
	for _, c := range append(append([]*client(nil), clients...), rep.extra...) {
		res.Attempted += c.sent
		res.Failed += c.failed
	}
	if res.Failed > 0 || len(rep.checks) > 0 {
		res.Correct = false
	}
	if rep.opts.trace {
		res.Metrics = rep.layers
	} else {
		res.Metrics = rep.e2e
	}
	return res
}

func (rep *report) print(w io.Writer, res *result) {
	st := rep.setup
	fmt.Fprintf(w, "setup: %.3fs (policy %.3fs, register %.3fs, boot %.3fs; median of %d)\n",
		st.total().Seconds(), st.policy.Seconds(), st.register.Seconds(), st.boot.Seconds(), len(rep.setups))
	fmt.Fprintf(w, "heap after warm-up: %.1f MB\n", rep.heapMB)
	if !rep.opts.trace {
		fmt.Fprintf(w, "latency samples: %d over %d windows of %s; window throughput %.0f\n",
			rep.samples, rep.windows, window, rep.windowRPS)
		fmt.Fprintf(w, "publishes under load: %d; rebalances %d moving %d shards\n", rep.publishes, rep.rebalances, rep.moves)
	}
	fmt.Fprintf(w, "writes on a freshly invalidated cache shard: %.2f%%\n", 100*rep.invalidated)
	for _, l := range rep.ledger {
		fmt.Fprintln(w, l)
	}
	if rep.ledgerMiss != "" {
		fmt.Fprintln(w, "LEDGER DOES NOT RECONCILE:", rep.ledgerMiss)
	}
	fmt.Fprintf(w, "error_rate: %g (%d failed of %d attempted)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	for _, c := range rep.checks {
		fmt.Fprintln(w, "CHECK FAILED:", c)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

// write stores the full report and the span log under the output
// directory.
func (rep *report) write(o options, res *result) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	tag := fmt.Sprintf("%s-seed%d-trace%v", o.workload, o.seed, o.trace)
	full := map[string]any{
		"workload": o.workload, "why": rep.spec.why, "seed": o.seed, "held_out_seed": heldOutSeed,
		"seconds": o.seconds, "nproc": rep.nclients, "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "invalidated_write_share": rep.invalidated, "result": res, "ledger": rep.ledger, "ledger_miss": rep.ledgerMiss, "checks": rep.checks,
	}
	b, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, "report-"+tag+".json"), b, 0o644); err != nil {
		return err
	}
	if len(rep.spans) == 0 {
		return nil
	}
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	for _, s := range rep.spans {
		_ = enc.Encode(s)
	}
	return os.WriteFile(filepath.Join(o.out, "spans-"+tag+".jsonl"), []byte(sb.String()), 0o644)
}
