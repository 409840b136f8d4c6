package plane

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/registry"
)

// rogueImg is an image no chaos-test policy generation admits, so a
// pod carrying it is denied whichever generation judges it.
const rogueImg = "docker.io/evil:1"

// TestChaosKillRestartMidSwap kills and restarts replicas while policy
// swaps and enforcement traffic run full tilt, and asserts the tier's
// two distribution invariants under the race detector:
//
//  1. No stale-generation decision: once a Swap returns, a request
//     STARTED afterwards is never judged by the pre-swap policy — not
//     even by a replica that was killed mid-swap and rejoined, because
//     rejoin requires a full resync from the control plane's desired
//     state before the replica re-enters the ring.
//  2. Fail-closed shedding: whatever the topology does, a request that
//     violates the current policy is never forwarded. Chaos may turn a
//     verdict into a 429/503 shed, never into a silent allow.
//
// The policy alternates between two generations with DISJOINT benign
// sets (v1 allows hostNetwork=false, v2 allows hostNetwork=true), so a
// stale verdict is directly observable as the wrong status code.
func TestChaosKillRestartMidSwap(t *testing.T) {
	pl := newTestPlane(t, 3, Config{})
	v1 := policyFor(t, "wl", false, img)
	v2 := policyFor(t, "wl", true, img)
	// Several sibling workloads so the kill always disturbs real
	// ownership somewhere even as shards move.
	for _, ns := range []string{"n1", "n2", "n3", "n4", "n5"} {
		if err := pl.Register("wl-"+ns, registry.Selector{Namespace: ns}, policyFor(t, "wl-"+ns, false, img)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.Register("wl", registry.Selector{Namespace: "prod"}, v1); err != nil {
		t.Fatal(err)
	}

	// phase is the generation traffic must judge against: even => v1
	// (false benign), odd => v2 (true benign). It is advanced only
	// AFTER the corresponding Swap has returned, so a reader that
	// observes phase N is guaranteed the swap to N's policy completed
	// before its request started. swapping is advanced BEFORE each Swap
	// is called, so swapping == phase exactly when no swap is in flight:
	// a Swap installs the new generation replica by replica before it
	// returns, so while one is in flight either generation's verdict is
	// legal.
	var phase, swapping atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	bodyFalse := podBody(false, img)
	bodyTrue := podBody(true, img)
	bodyNever := podBody(false, rogueImg)

	// Swapper: v1 -> v2 -> v1 -> ... as fast as it can.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			next := v2
			if i%2 == 1 {
				next = v1
			}
			swapping.Add(1)
			if err := pl.Swap("wl", next); err != nil {
				t.Errorf("Swap: %v", err)
				return
			}
			phase.Add(1)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Chaos monkey: kill and restart each replica in turn, mid-swap by
	// construction (the swapper never pauses).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			idx := i % 3
			if err := pl.Kill(idx); err != nil {
				t.Errorf("Kill(%d): %v", idx, err)
				return
			}
			time.Sleep(500 * time.Microsecond)
			if err := pl.Restart(idx); err != nil {
				t.Errorf("Restart(%d): %v", idx, err)
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	// Traffic: every request snapshots the phase BEFORE it starts, so
	// the snapshot is a lower bound on the published generation. If no
	// swap started by the time the request finished (swapping still
	// equals the snapshot), the verdict must be exactly the snapshot
	// generation's; if one did, any of the concurrently-published
	// generations' verdicts is legal (bounded mixed window) — but
	// forwarding a body BOTH generations deny is fail-open and always
	// fatal.
	const workers = 4
	var served, shed atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				before := phase.Load()
				wantAllow, wantDeny := bodyFalse, bodyTrue
				if before%2 == 1 {
					wantAllow, wantDeny = bodyTrue, bodyFalse
				}
				for _, probe := range []struct {
					body  []byte
					allow bool
					never bool // denied by every generation
				}{{wantAllow, true, false}, {wantDeny, false, false}, {bodyNever, false, true}} {
					req := httptest.NewRequest(http.MethodPost, "/api/v1/namespaces/prod/pods", bytes.NewReader(probe.body))
					req.Header.Set("Content-Type", "application/json")
					rec := httptest.NewRecorder()
					pl.ServeHTTP(rec, req)
					after := swapping.Load()
					switch rec.Code {
					case http.StatusOK, http.StatusForbidden:
						served.Add(1)
						if probe.never && rec.Code != http.StatusForbidden {
							t.Errorf("phase %d: body every generation denies was forwarded (fail-open)", before)
						}
						stable := before == after
						if stable && probe.allow && rec.Code != http.StatusOK {
							t.Errorf("phase %d: allowed body denied (stale generation served): %s", before, rec.Body)
						}
						if stable && !probe.allow && rec.Code != http.StatusForbidden {
							t.Errorf("phase %d: denied body forwarded (stale generation served)", before)
						}
					case http.StatusServiceUnavailable, http.StatusTooManyRequests:
						shed.Add(1) // fail-closed shed, acceptable under chaos
					default:
						t.Errorf("unexpected status %d under chaos: %s", rec.Code, rec.Body)
					}
				}
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	if served.Load() == 0 {
		t.Fatal("chaos run served zero requests — invariants never exercised")
	}
	t.Logf("chaos: %d served, %d shed, %d swaps, %d resyncs",
		served.Load(), shed.Load(), phase.Load(), pl.Metrics().Resyncs)

	// Quiesce: after the chaos stops and every replica is restored, the
	// tier must converge to the final generation everywhere.
	for i := 0; i < 3; i++ {
		if st, _ := pl.State(i); st == ReplicaDown {
			if err := pl.Restart(i); err != nil {
				t.Fatalf("final Restart(%d): %v", i, err)
			}
		}
	}
	final := phase.Load()
	wantAllow, wantDeny := bodyFalse, bodyTrue
	if final%2 == 1 {
		wantAllow, wantDeny = bodyTrue, bodyFalse
	}
	for i := 0; i < 50; i++ {
		if w := post(t, pl, "/api/v1/namespaces/prod/pods", wantAllow); w.Code != http.StatusOK {
			t.Fatalf("quiesced benign: code %d body %s", w.Code, w.Body)
		}
		if w := post(t, pl, "/api/v1/namespaces/prod/pods", wantDeny); w.Code != http.StatusForbidden {
			t.Fatalf("quiesced attack: code %d (fail-open after chaos)", w.Code)
		}
	}
	tm := pl.Metrics()
	if tm.PublishesStarted != tm.PublishesCompleted {
		t.Errorf("publishes: started %d != completed %d after quiesce", tm.PublishesStarted, tm.PublishesCompleted)
	}
}

// TestChaosRebalanceMidSwap races weighted rebalances against policy
// swaps and enforcement traffic: a rotating hot namespace keeps the
// load imbalanced so shards (and their workloads' hot caches) migrate
// continuously while a swapper alternates the probed workload's policy
// between two generations with disjoint benign sets. The invariants
// are the publish window's, extended to migrations:
//
//  1. No stale-generation verdict: a request started after a Swap
//     returned is never judged by the pre-swap policy, even when its
//     shard is mid-migration — the destination is installed at the
//     current generation before routing flips, and the source is a live
//     holder kept current by the swap itself.
//  2. No silent allow during a move: a body the current policy denies
//     is either denied or shed, never forwarded, whatever the placer is
//     doing to the routing table underneath.
func TestChaosRebalanceMidSwap(t *testing.T) {
	pl := newTestPlane(t, 3, Config{
		CacheSize:          128,
		Placement:          PlacementWeighted,
		RebalanceThreshold: 0.05,
		LoadSmoothing:      0.9,
	})
	v1 := policyFor(t, "wl", false, img)
	v2 := policyFor(t, "wl", true, img)
	siblings := []string{"n1", "n2", "n3", "n4", "n5", "n6"}
	for _, ns := range siblings {
		if err := pl.Register("wl-"+ns, registry.Selector{Namespace: ns}, policyFor(t, "wl-"+ns, false, img)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.Register("wl", registry.Selector{Namespace: "prod"}, v1); err != nil {
		t.Fatal(err)
	}

	// phase and swapping count returned and started swaps, exactly as
	// in TestChaosKillRestartMidSwap.
	var phase, swapping atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	bodyFalse := podBody(false, img)
	bodyTrue := podBody(true, img)
	bodyNever := podBody(false, rogueImg)

	// Swapper: v1 -> v2 -> v1 -> ...
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			next := v2
			if i%2 == 1 {
				next = v1
			}
			swapping.Add(1)
			if err := pl.Swap("wl", next); err != nil {
				t.Errorf("Swap: %v", err)
				return
			}
			phase.Add(1)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Placer: rebalance as fast as it can; the rotating hot namespace
	// below keeps handing it fresh imbalance to chase.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := pl.Rebalance(); err != nil {
				t.Errorf("Rebalance: %v", err)
				return
			}
			time.Sleep(300 * time.Microsecond)
		}
	}()

	const workers = 4
	var served, shed atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Hammer a rotating hot namespace so the placer keeps
				// migrating shards under the probes. Benign sibling
				// traffic must never be denied; attacks never allowed.
				hot := siblings[(i/32)%len(siblings)]
				hotPath := "/api/v1/namespaces/" + hot + "/pods"
				for _, probe := range []struct {
					body  []byte
					allow bool
				}{{bodyFalse, true}, {bodyTrue, false}} {
					req := httptest.NewRequest(http.MethodPost, hotPath, bytes.NewReader(probe.body))
					req.Header.Set("Content-Type", "application/json")
					rec := httptest.NewRecorder()
					pl.ServeHTTP(rec, req)
					switch {
					case probe.allow && rec.Code == http.StatusOK,
						!probe.allow && rec.Code == http.StatusForbidden:
						served.Add(1)
					case rec.Code == http.StatusServiceUnavailable || rec.Code == http.StatusTooManyRequests:
						shed.Add(1)
					case !probe.allow:
						t.Errorf("sibling attack forwarded mid-rebalance: status %d", rec.Code)
					default:
						t.Errorf("sibling benign denied mid-rebalance: status %d body %s", rec.Code, rec.Body)
					}
				}

				// The swapped workload: phase snapshot bounds the legal
				// generations exactly as in TestChaosKillRestartMidSwap.
				before := phase.Load()
				wantAllow, wantDeny := bodyFalse, bodyTrue
				if before%2 == 1 {
					wantAllow, wantDeny = bodyTrue, bodyFalse
				}
				for _, probe := range []struct {
					body  []byte
					allow bool
					never bool // denied by every generation
				}{{wantAllow, true, false}, {wantDeny, false, false}, {bodyNever, false, true}} {
					req := httptest.NewRequest(http.MethodPost, "/api/v1/namespaces/prod/pods", bytes.NewReader(probe.body))
					req.Header.Set("Content-Type", "application/json")
					rec := httptest.NewRecorder()
					pl.ServeHTTP(rec, req)
					after := swapping.Load()
					switch rec.Code {
					case http.StatusOK, http.StatusForbidden:
						served.Add(1)
						if probe.never && rec.Code != http.StatusForbidden {
							t.Errorf("phase %d: body every generation denies was forwarded (fail-open)", before)
						}
						stable := before == after
						if stable && probe.allow && rec.Code != http.StatusOK {
							t.Errorf("phase %d: allowed body denied mid-rebalance (stale generation): %s", before, rec.Body)
						}
						if stable && !probe.allow && rec.Code != http.StatusForbidden {
							t.Errorf("phase %d: denied body forwarded mid-rebalance (stale generation)", before)
						}
					case http.StatusServiceUnavailable, http.StatusTooManyRequests:
						shed.Add(1)
					default:
						t.Errorf("unexpected status %d under rebalance chaos: %s", rec.Code, rec.Body)
					}
				}
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	tm := pl.Metrics()
	if served.Load() == 0 {
		t.Fatal("rebalance chaos served zero requests — invariants never exercised")
	}
	if tm.ShardMigrations == 0 {
		t.Fatal("rebalance chaos migrated zero shards — the mid-move window was never exercised")
	}
	if tm.PublishesStarted != tm.PublishesCompleted {
		t.Errorf("publish window open after rebalance chaos: %d started, %d completed",
			tm.PublishesStarted, tm.PublishesCompleted)
	}
	t.Logf("rebalance chaos: %d served, %d shed, %d swaps, %d rebalances, %d migrations, %d handoff entries",
		served.Load(), shed.Load(), phase.Load(), tm.Rebalances, tm.ShardMigrations, tm.HandoffEntries)

	// Quiesce: the tier converges to the final generation everywhere.
	final := phase.Load()
	wantAllow, wantDeny := bodyFalse, bodyTrue
	if final%2 == 1 {
		wantAllow, wantDeny = bodyTrue, bodyFalse
	}
	for i := 0; i < 50; i++ {
		if w := post(t, pl, "/api/v1/namespaces/prod/pods", wantAllow); w.Code != http.StatusOK {
			t.Fatalf("quiesced benign: code %d body %s", w.Code, w.Body)
		}
		if w := post(t, pl, "/api/v1/namespaces/prod/pods", wantDeny); w.Code != http.StatusForbidden {
			t.Fatalf("quiesced attack: code %d (fail-open after rebalance chaos)", w.Code)
		}
	}
}
