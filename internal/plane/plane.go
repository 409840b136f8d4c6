// Package plane is the distributed admission tier: one http.Handler
// front door fronting N proxy replicas, each with its own policy
// registry, decision cache, and backpressure bound.
//
// Sharding. Workloads are distributed across replicas by consistent
// hashing over the shard keys their selector can be addressed by: a
// namespaced selector is owned by the replica that owns "ns/<namespace>"
// (plus "kind/<k>" for every cluster-scoped kind it claims), while
// kind-only and wildcard selectors are broadcast to every replica —
// requests route by namespace first, so a selector that matches any
// namespace must be present wherever a request can land, or the tier
// would fail closed on traffic the policy actually covers. Explicit
// pins (RegisterPinned) override both the routing table and ownership
// for a namespace. Requests are routed by the same key function, so a
// request always lands on a replica whose local registry holds every
// selector that could match it — per-replica resolution then applies
// the registry's usual specificity rules unchanged.
//
// Policy distribution. Register/Swap/Promote/Demote/SetMode are
// serialized under one control-plane lock and published to every owning
// replica before they return, reusing the registry's generation-pinned
// immutable snapshots: each replica-local Swap is atomic, and a replica
// that was down during a publish re-enters the ring only after a full
// resync (Restart), so a replica never serves policy state the control
// plane has not finished publishing. While a multi-replica publish is
// in flight, different owners of a broadcast workload may briefly serve
// different generations; that mixed-generation window is bounded by the
// publish completing and observable via TierMetrics.PublishesStarted vs
// PublishesCompleted.
//
// Fail-closed shedding. Per-replica backpressure (MaxInFlight +
// QueueTimeout) sheds overload with 429 and routes to dead replicas
// with 503 — a shed request is always an explicit denial-shaped
// response, never a silent allow.
package plane

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compile"
	"repro/internal/proxy"
	"repro/internal/registry"
	"repro/internal/telemetry"
	"repro/internal/validator"
)

// defaultVirtualNodes is the per-replica virtual-node count when
// Config.VirtualNodes is zero: enough to spread a drained replica's
// keys roughly evenly across survivors at small replica counts.
const defaultVirtualNodes = 64

// ReplicaState is a replica's lifecycle state.
type ReplicaState int32

const (
	// ReplicaActive serves routed requests and owns ring shards.
	ReplicaActive ReplicaState = iota
	// ReplicaDraining serves already-routed requests but owns no ring
	// shards; its workloads have been re-assigned.
	ReplicaDraining
	// ReplicaDown sheds every request (503) until Restart resyncs it.
	ReplicaDown
)

// String names the state for metrics and logs.
func (s ReplicaState) String() string {
	switch s {
	case ReplicaActive:
		return "active"
	case ReplicaDraining:
		return "draining"
	case ReplicaDown:
		return "down"
	default:
		return fmt.Sprintf("ReplicaState(%d)", int32(s))
	}
}

// Config configures the admission tier.
type Config struct {
	// Replicas is the number of proxy replicas (required, >= 1).
	Replicas int
	// Upstream is the API server base URL shared by every replica.
	Upstream string
	// Transport carries requests upstream. Defaults to
	// http.DefaultTransport.
	Transport http.RoundTripper
	// CacheSize bounds each replica registry's per-workload decision
	// cache. Zero disables caching.
	CacheSize int
	// MaxInFlight bounds the requests concurrently admitted into one
	// replica; excess requests wait up to QueueTimeout for a slot and
	// are then shed with 429. Zero means unbounded.
	MaxInFlight int
	// QueueTimeout is how long a request may wait for a replica slot
	// before being shed. Zero sheds immediately when the replica is
	// saturated.
	QueueTimeout time.Duration
	// VirtualNodes is the consistent-hash virtual-node count per
	// replica (default 64).
	VirtualNodes int
	// ProxyUser is forwarded to every replica proxy (header-auth
	// identity asserted upstream).
	ProxyUser string
	// DisableRawFastPath forces every replica through the decode-first
	// path (ablation/debugging).
	DisableRawFastPath bool
	// Telemetry, when non-nil, equips every replica proxy with its own
	// telemetry hub plus a front-door hub for routing outcomes
	// (routed/shed/unavailable). Hubs are created once and survive
	// Restart, so counters span replica generations; Plane.Telemetry()
	// merges them into one tier snapshot.
	Telemetry *telemetry.Config
	// Placement selects the shard placement policy: PlacementHash (the
	// default) places shard keys by consistent hashing alone;
	// PlacementWeighted overlays load-aware assignment — Rebalance
	// migrates the heaviest keys (and their hot decision caches) off
	// overloaded replicas.
	Placement PlacementPolicy
	// RebalanceThreshold is the weighted placement's hysteresis band: a
	// rebalance only moves shards while the most loaded replica exceeds
	// the mean load by this fraction (default 0.2).
	RebalanceThreshold float64
	// RebalanceInterval, when > 0 on a weighted-placement tier, runs
	// Rebalance on a background ticker until Close.
	RebalanceInterval time.Duration
	// LoadSmoothing is the EWMA coefficient for per-workload load
	// scores (0 < alpha <= 1, default 0.5); higher weights the latest
	// epoch more.
	LoadSmoothing float64
}

// workloadState is the control plane's desired state for one workload —
// the source of truth replicas are resynced from after a restart.
type workloadState struct {
	selector  registry.Selector
	validator *validator.Validator
	mode      registry.Mode
	observer  registry.Observer
	// gen is the plane generation of the last completed publish; Promote
	// pins against it exactly like registry.Promote pins entry
	// generations.
	gen uint64
	// pin, when >= 0, forces ownership (and routing of the selector's
	// shard keys) to one replica.
	pin int
	// owners are the replica indices the workload is currently
	// published to.
	owners []int
}

// replica is one proxy instance plus its tier bookkeeping.
type replica struct {
	index int
	state atomic.Int32

	// proxy is read by the data path and replaced wholesale on Restart
	// (a restarted replica is a fresh process: new registry, new proxy).
	proxy atomic.Pointer[proxy.Proxy]
	// reg is the control plane's handle to the replica's registry; only
	// touched under Plane.mu.
	reg *registry.Registry
	// installed maps workload -> plane generation last published to
	// this replica. Control-plane bookkeeping, under Plane.mu.
	installed map[string]uint64

	// inflight is the backpressure semaphore (nil when unbounded).
	inflight chan struct{}

	// hub is the replica's telemetry recorder (nil when the tier runs
	// without telemetry). Created once; survives Restart so decision
	// counters span replica generations.
	hub *telemetry.Hub

	routed      atomic.Uint64
	shed        atomic.Uint64
	unavailable atomic.Uint64
}

// routeTable is the immutable routing snapshot the data path reads —
// rebuilt and atomically published by every topology or pin change so
// requests never take the control-plane lock.
type routeTable struct {
	ring *ring
	pins map[string]int
	// assign is the weighted placement overlay: shard keys explicitly
	// homed by the last rebalance. Resolution order is pins, then
	// assign, then the ring.
	assign map[string]int
}

// owner resolves a shard key to its replica: explicit pin first, then
// the weighted assignment, then consistent hashing. ok is false only
// when the ring is empty (every replica drained or down).
func (rt *routeTable) owner(key string) (int, bool) {
	if idx, ok := rt.pins[key]; ok {
		return idx, true
	}
	if idx, ok := rt.assign[key]; ok {
		return idx, true
	}
	return rt.ring.lookup(key)
}

// Plane is the distributed admission tier.
type Plane struct {
	cfg      Config
	replicas []*replica
	routes   atomic.Pointer[routeTable]

	// mu serializes every control-plane operation: registration, policy
	// publishes, mode transitions, and replica lifecycle. Publishes are
	// therefore linearizable — two Swaps can never interleave their
	// per-replica installs.
	mu        sync.Mutex
	workloads map[string]*workloadState
	pins      map[string]int
	gens      atomic.Uint64

	// assign and loads are the weighted placer's state: the committed
	// shard-key assignment and the per-workload EWMA bookkeeping. Both
	// under mu.
	assign map[string]int
	loads  map[string]loadState

	requests           atomic.Uint64
	shedTotal          atomic.Uint64
	unavailableTotal   atomic.Uint64
	publishesStarted   atomic.Uint64
	publishesCompleted atomic.Uint64
	resyncs            atomic.Uint64
	rebalances         atomic.Uint64
	migrations         atomic.Uint64
	handoffTotal       atomic.Uint64

	// rebalanceStop ends the periodic rebalancer (nil unless
	// Config.RebalanceInterval started one).
	rebalanceStop chan struct{}
	closeOnce     sync.Once

	// front records routing outcomes at the front door (nil when the
	// tier runs without telemetry).
	front *telemetry.Hub
}

// New builds the tier: Replicas proxy replicas, each with its own
// registry, all initially active and empty.
func New(cfg Config) (*Plane, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("plane: Config.Replicas must be >= 1 (got %d)", cfg.Replicas)
	}
	if cfg.Upstream == "" {
		return nil, fmt.Errorf("plane: Config.Upstream is required")
	}
	switch cfg.Placement {
	case "", PlacementHash, PlacementWeighted:
	default:
		return nil, fmt.Errorf("plane: unknown placement policy %q", cfg.Placement)
	}
	pl := &Plane{
		cfg:       cfg,
		workloads: map[string]*workloadState{},
		pins:      map[string]int{},
		assign:    map[string]int{},
		loads:     map[string]loadState{},
	}
	if cfg.Telemetry != nil {
		pl.front = telemetry.New(*cfg.Telemetry)
	}
	for i := 0; i < cfg.Replicas; i++ {
		rep := &replica{index: i, installed: map[string]uint64{}}
		if cfg.MaxInFlight > 0 {
			rep.inflight = make(chan struct{}, cfg.MaxInFlight)
		}
		if cfg.Telemetry != nil {
			rep.hub = telemetry.New(*cfg.Telemetry)
		}
		if err := pl.bootReplica(rep); err != nil {
			return nil, err
		}
		pl.replicas = append(pl.replicas, rep)
	}
	pl.publishRoutesLocked()
	if pl.placement() == PlacementWeighted && cfg.RebalanceInterval > 0 {
		pl.rebalanceStop = make(chan struct{})
		go pl.rebalanceLoop(cfg.RebalanceInterval)
	}
	return pl, nil
}

// bootReplica gives rep a fresh registry and proxy (initial boot and
// Restart both go through here — a restarted replica is a new process).
func (pl *Plane) bootReplica(rep *replica) error {
	reg := registry.New(registry.Config{CacheSize: pl.cfg.CacheSize})
	px, err := proxy.New(proxy.Config{
		Upstream:           pl.cfg.Upstream,
		Transport:          pl.cfg.Transport,
		Registry:           reg,
		ProxyUser:          pl.cfg.ProxyUser,
		DisableRawFastPath: pl.cfg.DisableRawFastPath,
		Telemetry:          rep.hub,
	})
	if err != nil {
		return err
	}
	rep.reg = reg
	rep.proxy.Store(px)
	rep.installed = map[string]uint64{}
	return nil
}

// activeIndices lists replicas eligible to own ring shards.
func (pl *Plane) activeIndices() []int {
	var out []int
	for _, rep := range pl.replicas {
		if ReplicaState(rep.state.Load()) == ReplicaActive {
			out = append(out, rep.index)
		}
	}
	return out
}

// publishRoutesLocked rebuilds the routing snapshot from the current
// ring membership, pins, and weighted assignments, and publishes it to
// the data path. Pins and assignments whose target replica is not
// active are omitted — routing falls back to the ring exactly like
// ownership does, so a pinned or weighted-placed workload keeps
// receiving (correctly re-homed) traffic while its replica is out.
// Caller holds pl.mu (or is inside New, before the plane escapes).
func (pl *Plane) publishRoutesLocked() {
	pins := make(map[string]int, len(pl.pins))
	for k, v := range pl.pins {
		if ReplicaState(pl.replicas[v].state.Load()) == ReplicaActive {
			pins[k] = v
		}
	}
	assign := make(map[string]int, len(pl.assign))
	for k, v := range pl.assign {
		if ReplicaState(pl.replicas[v].state.Load()) == ReplicaActive {
			assign[k] = v
		}
	}
	pl.routes.Store(&routeTable{
		ring:   buildRing(pl.activeIndices(), pl.cfg.VirtualNodes),
		pins:   pins,
		assign: assign,
	})
}

// Shard keys. Requests and selectors are addressed by the same key
// space so routing and ownership can never disagree: namespaced traffic
// by "ns/<namespace>", cluster-scoped traffic by "kind/<kind>", and
// unscannable bodies by a deterministic path fallback (any replica will
// fail closed on them identically).
func nsKey(namespace string) string { return "ns/" + namespace }
func kindKey(kind string) string    { return "kind/" + kind }

// shardKeys lists the keys a selector is addressed by. Empty means the
// selector is not shardable (matches any namespace) and must be
// broadcast to every replica.
func shardKeys(sel registry.Selector) []string {
	if sel.Namespace == "" {
		return nil
	}
	keys := []string{nsKey(sel.Namespace)}
	for _, k := range sel.ClusterKinds {
		keys = append(keys, kindKey(k))
	}
	return keys
}

// ownersLocked computes the replica set a workload must be published
// to under the current ring, pins, and weighted assignments.
func (pl *Plane) ownersLocked(ws *workloadState) []int {
	rt := pl.routes.Load()
	return ownersOn(rt.ring, pl.pins, pl.assign, ws, func(i int) ReplicaState {
		return ReplicaState(pl.replicas[i].state.Load())
	})
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Register adds a workload policy to the tier and publishes it to its
// owning replicas. The selector semantics are the registry's; a
// wildcard or kind-only selector is broadcast to every replica.
func (pl *Plane) Register(workload string, sel registry.Selector, v *validator.Validator) error {
	return pl.register(workload, sel, v, -1)
}

// RegisterPinned is Register with an explicit placement override: the
// workload (and the routing of its namespace and claimed cluster
// kinds) is pinned to one replica instead of consistent hashing.
// Pinning requires a namespaced selector — a selector that matches any
// namespace has no shard key to pin.
func (pl *Plane) RegisterPinned(workload string, sel registry.Selector, v *validator.Validator, replicaIndex int) error {
	if sel.Namespace == "" {
		return fmt.Errorf("plane: workload %s: pinning requires a namespaced selector", workload)
	}
	return pl.register(workload, sel, v, replicaIndex)
}

func (pl *Plane) register(workload string, sel registry.Selector, v *validator.Validator, pin int) error {
	if v == nil {
		return fmt.Errorf("plane: validator is required for workload %s", workload)
	}
	// Compile before touching any replica: a policy that does not
	// compile must leave the whole tier untouched.
	if _, err := compile.Compile(v); err != nil {
		return fmt.Errorf("plane: workload %s: %w", workload, err)
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if _, dup := pl.workloads[workload]; dup {
		return fmt.Errorf("plane: workload %s is already registered", workload)
	}
	if pin >= len(pl.replicas) {
		return fmt.Errorf("plane: workload %s: no replica %d (tier has %d)", workload, pin, len(pl.replicas))
	}
	// Cluster-scoped claims must be tier-unique for the same reason they
	// are registry-unique: no namespace disambiguates tenants. Checked
	// here because two workloads on different replicas would never meet
	// inside one registry.
	for _, kind := range sel.ClusterKinds {
		for w, ws := range pl.workloads {
			for _, claimed := range ws.selector.ClusterKinds {
				if kind == claimed {
					return fmt.Errorf("plane: cluster-scoped kind %s already claimed by workload %s", kind, w)
				}
			}
		}
	}
	if pin >= 0 {
		for _, key := range shardKeys(sel) {
			if other, ok := pl.pins[key]; ok && other != pin {
				return fmt.Errorf("plane: shard %s already pinned to replica %d", key, other)
			}
		}
	}
	ws := &workloadState{selector: sel, validator: v, mode: registry.ModeEnforce, pin: pin}
	pl.workloads[workload] = ws
	if pin >= 0 {
		for _, key := range shardKeys(sel) {
			pl.pins[key] = pin
		}
		pl.publishRoutesLocked()
	}
	return pl.publishLocked(workload, ws)
}

// RegisterLearning adds a workload with no policy in ModeLearn: its
// traffic is forwarded and fed to the observer on every owning replica.
func (pl *Plane) RegisterLearning(workload string, sel registry.Selector, obs registry.Observer) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if _, dup := pl.workloads[workload]; dup {
		return fmt.Errorf("plane: workload %s is already registered", workload)
	}
	ws := &workloadState{selector: sel, mode: registry.ModeLearn, observer: obs, pin: -1}
	pl.workloads[workload] = ws
	return pl.publishLocked(workload, ws)
}

// Swap atomically replaces a workload's policy tier-wide: compiled
// once up front, then published to every owning replica under the
// control-plane lock. Each replica's local swap is an atomic snapshot
// publish; when Swap returns, every owner serves the new generation.
// Returns registry.ErrUnknownWorkload for a workload the tier has
// never seen.
func (pl *Plane) Swap(workload string, v *validator.Validator) error {
	if v == nil {
		return fmt.Errorf("plane: validator is required for workload %s", workload)
	}
	if _, err := compile.Compile(v); err != nil {
		return fmt.Errorf("plane: workload %s: %w", workload, err)
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	ws, ok := pl.workloads[workload]
	if !ok {
		return fmt.Errorf("%w: %s is not registered with the plane", registry.ErrUnknownWorkload, workload)
	}
	ws.validator = v
	return pl.publishLocked(workload, ws)
}

// publishLocked pushes a workload's desired state to its distribution
// set: the current owners (who receive traffic) plus every live
// replica still HOLDING a copy from an earlier topology. Holders are
// kept current rather than deregistered — a request routed an instant
// before a shard moved must still resolve to the same generation on
// the old replica, so live copies are only ever dropped by a process
// restart (which resyncs from scratch) or an explicit Deregister. A
// down replica takes no publishes; Restart resyncs it from desired
// state before it serves again. Caller holds pl.mu.
func (pl *Plane) publishLocked(workload string, ws *workloadState) error {
	pl.publishesStarted.Add(1)
	defer pl.publishesCompleted.Add(1)
	gen := pl.gens.Add(1)
	owners := pl.ownersLocked(ws)
	var firstErr error
	for _, rep := range pl.replicas {
		if ReplicaState(rep.state.Load()) == ReplicaDown {
			continue
		}
		_, holds := rep.installed[workload]
		if !holds && !containsInt(owners, rep.index) {
			continue
		}
		if err := pl.installLocked(rep, workload, ws, gen); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("plane: replica %d: %w", rep.index, err)
		}
	}
	if firstErr == nil {
		ws.gen = gen
		ws.owners = owners
	}
	return firstErr
}

// installLocked makes one replica's registry match the desired state of
// one workload. The registry's typed sentinels drive the reconcile: an
// ErrUnknownWorkload from Swap means the replica lost the entry
// (restarted process) and the install falls back to Register; any other
// error is reported to the caller. Caller holds pl.mu.
func (pl *Plane) installLocked(rep *replica, workload string, ws *workloadState, gen uint64) error {
	if ws.validator == nil {
		// Learn-mode workload: no policy to swap, just ensure presence.
		if _, had := rep.installed[workload]; !had {
			if _, err := rep.reg.RegisterLearning(workload, ws.selector, ws.observer); err != nil {
				return err
			}
		}
	} else if _, had := rep.installed[workload]; had {
		if err := rep.reg.Swap(workload, ws.validator); err != nil {
			if !errors.Is(err, registry.ErrUnknownWorkload) {
				return err
			}
			if _, err := rep.reg.Register(workload, ws.selector, ws.validator); err != nil {
				return err
			}
		}
	} else {
		if _, err := rep.reg.Register(workload, ws.selector, ws.validator); err != nil {
			return err
		}
	}
	if err := rep.reg.SetMode(workload, ws.mode); err != nil {
		return err
	}
	if ws.observer != nil {
		if err := rep.reg.SetObserver(workload, ws.observer); err != nil {
			return err
		}
	}
	rep.installed[workload] = gen
	return nil
}

// SetMode sets a workload's enforcement mode on every owning replica —
// the operator override, mirroring Registry.SetMode.
func (pl *Plane) SetMode(workload string, m registry.Mode) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	ws, ok := pl.workloads[workload]
	if !ok {
		return fmt.Errorf("%w: %s is not registered with the plane", registry.ErrUnknownWorkload, workload)
	}
	ws.mode = m
	var firstErr error
	for _, rep := range pl.holders(workload) {
		if err := rep.reg.SetMode(workload, m); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// holders lists the live replicas that hold a copy of a workload — the
// set mode transitions and promotions must reach (a superset of the
// routing owners; see publishLocked). Caller holds pl.mu.
func (pl *Plane) holders(workload string) []*replica {
	var out []*replica
	for _, rep := range pl.replicas {
		if ReplicaState(rep.state.Load()) == ReplicaDown {
			continue
		}
		if _, holds := rep.installed[workload]; holds {
			out = append(out, rep)
		}
	}
	return out
}

// Promote switches a shadowing workload to enforce tier-wide, pinned to
// the plane generation the caller's shadow gate evaluated — the
// distributed analogue of Registry.Promote. The sentinel contract is
// the registry's: ErrUnknownWorkload and ErrNotShadowing are permanent,
// ErrStaleGeneration means a Swap won the race and the caller should
// re-gate against the new generation.
func (pl *Plane) Promote(workload string, gen uint64) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	ws, ok := pl.workloads[workload]
	if !ok {
		return fmt.Errorf("%w: %s is not registered with the plane", registry.ErrUnknownWorkload, workload)
	}
	if ws.mode != registry.ModeShadow {
		return fmt.Errorf("%w (workload %s: mode %s)", registry.ErrNotShadowing, workload, ws.mode)
	}
	if ws.gen != gen {
		return fmt.Errorf("%w (workload %s: gated plane generation %d, current %d)",
			registry.ErrStaleGeneration, workload, gen, ws.gen)
	}
	// Holders promote against their own local entry generation: the
	// control-plane lock serializes this against every Swap, so the
	// local generation observed here is exactly the one the plane
	// generation above published.
	for _, rep := range pl.holders(workload) {
		e, ok := rep.reg.Entry(workload)
		if !ok {
			continue
		}
		if err := rep.reg.Promote(workload, e.Generation()); err != nil {
			return fmt.Errorf("plane: replica %d: %w", rep.index, err)
		}
	}
	ws.mode = registry.ModeEnforce
	return nil
}

// Demote drops an enforcing workload back to shadow tier-wide.
func (pl *Plane) Demote(workload string) error {
	return pl.SetMode(workload, registry.ModeShadow)
}

// Deregister removes a workload from the tier and every replica. It
// reports whether the workload was registered.
func (pl *Plane) Deregister(workload string) bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	ws, ok := pl.workloads[workload]
	if !ok {
		return false
	}
	for _, rep := range pl.replicas {
		if _, had := rep.installed[workload]; had {
			rep.reg.Deregister(workload)
			delete(rep.installed, workload)
		}
	}
	if ws.pin >= 0 {
		for _, key := range shardKeys(ws.selector) {
			delete(pl.pins, key)
		}
		pl.publishRoutesLocked()
	}
	delete(pl.workloads, workload)
	return true
}

// Generation reports the plane generation of a workload's last
// completed publish — the value Promote pins against.
func (pl *Plane) Generation(workload string) (uint64, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	ws, ok := pl.workloads[workload]
	if !ok {
		return 0, fmt.Errorf("%w: %s is not registered with the plane", registry.ErrUnknownWorkload, workload)
	}
	return ws.gen, nil
}

// Mode reports a workload's tier-wide enforcement mode.
func (pl *Plane) Mode(workload string) (registry.Mode, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	ws, ok := pl.workloads[workload]
	if !ok {
		return 0, fmt.Errorf("%w: %s is not registered with the plane", registry.ErrUnknownWorkload, workload)
	}
	return ws.mode, nil
}

// Owners reports the replica indices currently serving a workload.
func (pl *Plane) Owners(workload string) ([]int, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	ws, ok := pl.workloads[workload]
	if !ok {
		return nil, fmt.Errorf("%w: %s is not registered with the plane", registry.ErrUnknownWorkload, workload)
	}
	return append([]int(nil), ws.owners...), nil
}

// Workloads lists the tier's registered workloads.
func (pl *Plane) Workloads() []string {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	out := make([]string, 0, len(pl.workloads))
	for w := range pl.workloads {
		out = append(out, w)
	}
	return out
}

// Replicas reports the configured replica count.
func (pl *Plane) Replicas() int { return len(pl.replicas) }

// State reports one replica's lifecycle state.
func (pl *Plane) State(replicaIndex int) (ReplicaState, error) {
	if replicaIndex < 0 || replicaIndex >= len(pl.replicas) {
		return 0, fmt.Errorf("plane: no replica %d", replicaIndex)
	}
	return ReplicaState(pl.replicas[replicaIndex].state.Load()), nil
}

// rebalanceLocked reconciles the whole tier with the CURRENT replica
// states after a topology change: ownership is recomputed on the
// future ring, every owner and live holder is brought to the current
// generation, and only then is the new route table published — a
// request can never be routed to a replica that does not yet hold the
// current copy of every policy that can match it. Replicas already at
// the workload's published generation are skipped, so an unchanged
// shard costs nothing. Caller holds pl.mu.
func (pl *Plane) rebalanceLocked() error {
	// Weighted assignments whose replica left the active set fall back
	// to hashed placement until the next weighted rebalance re-places
	// them by load.
	for key, idx := range pl.assign {
		if ReplicaState(pl.replicas[idx].state.Load()) != ReplicaActive {
			delete(pl.assign, key)
		}
	}
	future := buildRing(pl.activeIndices(), pl.cfg.VirtualNodes)
	stateOf := func(i int) ReplicaState {
		return ReplicaState(pl.replicas[i].state.Load())
	}
	var firstErr error
	for w, ws := range pl.workloads {
		owners := ownersOn(future, pl.pins, pl.assign, ws, stateOf)
		prev := ws.owners
		for _, rep := range pl.replicas {
			if ReplicaState(rep.state.Load()) == ReplicaDown {
				continue
			}
			gen, holds := rep.installed[w]
			if holds && gen == ws.gen {
				continue // already serving exactly the published state
			}
			if !holds && !containsInt(owners, rep.index) {
				continue
			}
			if err := pl.installLocked(rep, w, ws, ws.gen); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("plane: replica %d: %w", rep.index, err)
			}
		}
		// A replica gaining this workload inherits the hot decision set
		// from a live previous owner (drain handoff; a killed source has
		// nothing left to export) — installed above, primed here, and
		// only then routed to by the table published below.
		for _, idx := range owners {
			if containsInt(prev, idx) {
				continue
			}
			for _, old := range prev {
				if n := pl.handoffLocked(old, pl.replicas[idx], w, ws); n > 0 {
					pl.handoffTotal.Add(uint64(n))
					break
				}
			}
		}
		ws.owners = owners
	}
	pl.publishRoutesLocked()
	return firstErr
}

// Drain gracefully removes a replica from the ring: its shards are
// deterministically re-assigned (the new owners are installed before
// the routing flips), and requests routed just before the flip keep
// resolving against its retained — and still swap-updated — copies.
func (pl *Plane) Drain(replicaIndex int) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if replicaIndex < 0 || replicaIndex >= len(pl.replicas) {
		return fmt.Errorf("plane: no replica %d", replicaIndex)
	}
	pl.replicas[replicaIndex].state.Store(int32(ReplicaDraining))
	return pl.rebalanceLocked()
}

// Kill marks a replica dead — the abrupt path (crash, health-check
// failure). Requests already routed to it shed with 503; its shards are
// re-assigned to the survivors; its in-memory policy state is
// considered lost (a restart resyncs from the control plane's desired
// state, it does not trust the corpse).
func (pl *Plane) Kill(replicaIndex int) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if replicaIndex < 0 || replicaIndex >= len(pl.replicas) {
		return fmt.Errorf("plane: no replica %d", replicaIndex)
	}
	rep := pl.replicas[replicaIndex]
	rep.state.Store(int32(ReplicaDown))
	rep.installed = map[string]uint64{}
	return pl.rebalanceLocked()
}

// Restart brings a drained or dead replica back: it boots a FRESH
// registry and proxy (a restarted process remembers nothing) and
// resyncs from the control plane's desired state before the route
// table includes it — a rejoining replica can never serve a request
// before it holds the current generation of every policy it owns. The
// old route table keeps routing around the replica (and its state is
// Down) until the resync completes, so mid-resync requests shed
// rather than hit a partially-populated registry.
func (pl *Plane) Restart(replicaIndex int) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if replicaIndex < 0 || replicaIndex >= len(pl.replicas) {
		return fmt.Errorf("plane: no replica %d", replicaIndex)
	}
	rep := pl.replicas[replicaIndex]
	// Kill semantics (shed everything) hold while the fresh registry is
	// repopulated by the rebalance below.
	rep.state.Store(int32(ReplicaDown))
	if err := pl.bootReplica(rep); err != nil {
		return err
	}
	pl.resyncs.Add(1)
	rep.state.Store(int32(ReplicaActive))
	return pl.rebalanceLocked()
}

// ownersOn is the ownership function over an explicit ring and state
// view, shared by live publishes (ownersLocked) and the future-topology
// computation during resync. Pins and weighted assignments only bind
// while their replica is active; otherwise the shard falls back to
// hashed placement, matching publishRoutesLocked's filtered routing.
// Resolution order is the data path's: pin, then assignment, then ring.
func ownersOn(rg *ring, pins, assign map[string]int, ws *workloadState, stateOf func(int) ReplicaState) []int {
	if ws.pin >= 0 && stateOf(ws.pin) == ReplicaActive {
		return []int{ws.pin}
	}
	keys := shardKeys(ws.selector)
	if keys == nil {
		// Broadcast: every replica the ring knows about. Derive the
		// active set from the ring's points.
		var owners []int
		for _, p := range rg.points {
			if !containsInt(owners, p.replica) {
				owners = append(owners, p.replica)
			}
		}
		return owners
	}
	var owners []int
	for _, key := range keys {
		idx, ok := rg.lookup(key)
		if !ok {
			continue
		}
		if assigned, ok := assign[key]; ok && stateOf(assigned) == ReplicaActive {
			idx = assigned
		}
		if pinned, ok := pins[key]; ok && stateOf(pinned) == ReplicaActive {
			idx = pinned
		}
		if !containsInt(owners, idx) {
			owners = append(owners, idx)
		}
	}
	return owners
}

// --- data path ---------------------------------------------------------

// maxInspectBytes mirrors the proxy's inspection bound; the front door
// must not buffer more than a replica would accept.
const maxInspectBytes = 4 << 20

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 256 << 10

func putBody(buf *bytes.Buffer) {
	if buf != nil && buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// ServeHTTP is the tier's front door: derive the shard key, pick the
// owning replica, apply its backpressure bound, and hand the request to
// its proxy. Every failure mode is an explicit denial-shaped response —
// unreadable body 400, saturated replica 429, dead or missing replica
// 503 — never a silent allow.
func (pl *Plane) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Observability endpoints ride the front door so replica state is
	// visible without linking the Go API; they are answered before the
	// request counter and body read (a scrape is not admission traffic).
	if r.Method == http.MethodGet {
		switch r.URL.Path {
		case "/healthz":
			pl.serveHealthz(w)
			return
		case "/varz":
			pl.serveVarz(w)
			return
		}
	}
	pl.requests.Add(1)
	var start time.Time
	if pl.front != nil {
		start = time.Now()
	}

	var body []byte
	var buf *bytes.Buffer
	if r.Body != nil {
		buf = bodyPool.Get().(*bytes.Buffer)
		buf.Reset()
		if _, err := buf.ReadFrom(io.LimitReader(r.Body, maxInspectBytes+1)); err != nil {
			putBody(buf)
			pl.writeStatus(w, http.StatusBadRequest, "KubeFenceRequestRejected",
				"request body could not be read: "+err.Error())
			return
		}
		r.Body.Close()
		body = buf.Bytes()
	}
	defer putBody(buf)

	key := routeKey(r, body)
	rt := pl.routes.Load()
	idx, ok := rt.owner(key)
	if !ok {
		pl.unavailableTotal.Add(1)
		pl.recordFront(telemetry.VerdictUnavailable, start)
		pl.writeStatus(w, http.StatusServiceUnavailable, "KubeFenceReplicaUnavailable",
			"no active admission replica for this request")
		return
	}
	rep := pl.replicas[idx]
	if ReplicaState(rep.state.Load()) == ReplicaDown {
		rep.unavailable.Add(1)
		pl.unavailableTotal.Add(1)
		pl.recordFront(telemetry.VerdictUnavailable, start)
		pl.writeStatus(w, http.StatusServiceUnavailable, "KubeFenceReplicaUnavailable",
			fmt.Sprintf("admission replica %d is down", idx))
		return
	}

	if rep.inflight != nil {
		if !rep.acquire(pl.cfg.QueueTimeout) {
			rep.shed.Add(1)
			pl.shedTotal.Add(1)
			pl.recordFront(telemetry.VerdictShed, start)
			pl.writeStatus(w, http.StatusTooManyRequests, "KubeFenceTierOverloaded",
				fmt.Sprintf("admission replica %d is saturated", idx))
			return
		}
		defer rep.release()
	}

	px := rep.proxy.Load()
	if px == nil {
		rep.unavailable.Add(1)
		pl.unavailableTotal.Add(1)
		pl.recordFront(telemetry.VerdictUnavailable, start)
		pl.writeStatus(w, http.StatusServiceUnavailable, "KubeFenceReplicaUnavailable",
			fmt.Sprintf("admission replica %d is restarting", idx))
		return
	}
	rep.routed.Add(1)
	// The front-door record covers routing overhead only; the replica's
	// own hub times the admission decision itself.
	pl.recordFront(telemetry.VerdictRouted, start)
	if body != nil {
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	px.ServeHTTP(w, r)
}

// FrontDoorWorkload is the telemetry workload label the front door
// records its routing outcomes under.
const FrontDoorWorkload = "_frontdoor"

// recordFront records one routing outcome on the front-door hub; a
// no-op when the tier runs without telemetry.
func (pl *Plane) recordFront(v telemetry.Verdict, start time.Time) {
	if pl.front != nil {
		pl.front.RecordDecision(FrontDoorWorkload, v, telemetry.PathRaw, time.Since(start))
	}
}

// serveHealthz reports liveness as seen by the router: 200 while at
// least one replica is active (the tier can admit), 503 otherwise —
// with the per-state replica counts either way, so a drained or killed
// replica is visible to a probe without the Go API.
func (pl *Plane) serveHealthz(w http.ResponseWriter) {
	counts := map[string]int{}
	for _, rep := range pl.replicas {
		counts[ReplicaState(rep.state.Load()).String()]++
	}
	code := http.StatusOK
	status := "ok"
	if counts["active"] == 0 {
		code = http.StatusServiceUnavailable
		status = "no active replicas"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(map[string]any{"status": status, "replicas": counts})
}

// serveVarz serves the full tier rollup as JSON: TierMetrics (replica
// states, front-door accounting, summed proxy counters), the merged
// telemetry snapshot, and the sampled traces when telemetry is on.
func (pl *Plane) serveVarz(w http.ResponseWriter) {
	out := map[string]any{"tier": pl.Metrics()}
	if pl.front != nil {
		out["telemetry"] = pl.Telemetry()
		out["traces"] = pl.Traces()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// acquire takes a backpressure slot, waiting up to timeout.
func (rep *replica) acquire(timeout time.Duration) bool {
	select {
	case rep.inflight <- struct{}{}:
		return true
	default:
	}
	if timeout <= 0 {
		return false
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case rep.inflight <- struct{}{}:
		return true
	case <-t.C:
		return false
	}
}

func (rep *replica) release() { <-rep.inflight }

// routeKey derives the shard key of a request from the namespace and
// kind its replica will resolve the workload by (proxy.RequestTarget,
// the replica's own routing code, so the two can never diverge): the
// namespace when there is one, else the body kind for cluster-scoped
// objects. Requests with neither get a deterministic path key; every
// replica fails closed on those identically, the key only needs to be
// stable.
func routeKey(r *http.Request, body []byte) string {
	namespace, kind := proxy.RequestTarget(r, body)
	if namespace != "" {
		return nsKey(namespace)
	}
	if kind != "" {
		return kindKey(kind)
	}
	return "path/" + r.URL.Path
}

// writeStatus writes a Kubernetes Status-shaped failure so shed
// responses are machine-distinguishable from policy denials (which the
// replicas emit themselves with reason KubeFencePolicyViolation).
func (pl *Plane) writeStatus(w http.ResponseWriter, code int, reason, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, `{"kind":"Status","apiVersion":"v1","status":"Failure","message":%q,"reason":%q,"code":%d}`+"\n",
		message, reason, code)
}

// --- metrics -----------------------------------------------------------

// ReplicaMetrics is one replica's rollup.
type ReplicaMetrics struct {
	Index int    `json:"index"`
	State string `json:"state"`
	// Routed counts requests handed to this replica's proxy; Shed and
	// Unavailable count requests refused at the front door on its
	// behalf (429 and 503 respectively).
	Routed      uint64 `json:"routed"`
	Shed        uint64 `json:"shed"`
	Unavailable uint64 `json:"unavailable"`
	// Workloads is the number of policies currently installed.
	Workloads int `json:"workloads"`
	// AssignedShards and LoadScore describe placement: how many shard
	// keys currently route to this replica and the EWMA load score they
	// carry (pinned shards are placed by fiat and not scored).
	AssignedShards int           `json:"assigned_shards"`
	LoadScore      float64       `json:"load_score"`
	Proxy          proxy.Metrics `json:"proxy"`
}

// TierMetrics is the tier-level rollup: front-door accounting,
// per-replica detail, and the summed proxy counters.
type TierMetrics struct {
	Requests    uint64 `json:"requests"`
	Shed        uint64 `json:"shed"`
	Unavailable uint64 `json:"unavailable"`
	// PublishesStarted / PublishesCompleted bound the mixed-generation
	// window: equal values mean every replica serves the generation its
	// last completed publish installed.
	PublishesStarted   uint64 `json:"publishes_started"`
	PublishesCompleted uint64 `json:"publishes_completed"`
	Resyncs            uint64 `json:"resyncs"`
	// Generations maps each workload to the plane generation of its
	// last completed publish.
	Generations map[string]uint64 `json:"generations"`
	// Placement names the shard placement policy; Rebalances counts
	// rebalance epochs, ShardMigrations the shard keys they moved, and
	// HandoffEntries the cached decisions that travelled with migrating
	// shards (rebalances and drains both).
	Placement       string           `json:"placement"`
	Rebalances      uint64           `json:"rebalances"`
	ShardMigrations uint64           `json:"shard_migrations"`
	HandoffEntries  uint64           `json:"handoff_entries"`
	Replicas        []ReplicaMetrics `json:"replicas"`
	// Proxy sums the per-replica proxy counters.
	Proxy proxy.Metrics `json:"proxy"`
}

// Metrics snapshots the tier.
func (pl *Plane) Metrics() TierMetrics {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	tm := TierMetrics{
		Requests:           pl.requests.Load(),
		Shed:               pl.shedTotal.Load(),
		Unavailable:        pl.unavailableTotal.Load(),
		PublishesStarted:   pl.publishesStarted.Load(),
		PublishesCompleted: pl.publishesCompleted.Load(),
		Resyncs:            pl.resyncs.Load(),
		Generations:        make(map[string]uint64, len(pl.workloads)),
		Placement:          string(pl.placement()),
		Rebalances:         pl.rebalances.Load(),
		ShardMigrations:    pl.migrations.Load(),
		HandoffEntries:     pl.handoffTotal.Load(),
	}
	for w, ws := range pl.workloads {
		tm.Generations[w] = ws.gen
	}
	// Per-replica placement detail: fold a read-only score preview onto
	// shard keys and resolve each key against the live route table.
	scores := pl.loadScoresLocked(false)
	rt := pl.routes.Load()
	shardsBy := make(map[int]int, len(pl.replicas))
	loadBy := make(map[int]float64, len(pl.replicas))
	for _, kl := range pl.keyLoadsLocked(scores) {
		idx, ok := rt.owner(kl.key)
		if !ok {
			continue
		}
		shardsBy[idx]++
		loadBy[idx] += kl.score
	}
	for _, rep := range pl.replicas {
		rm := ReplicaMetrics{
			Index:          rep.index,
			State:          ReplicaState(rep.state.Load()).String(),
			Routed:         rep.routed.Load(),
			Shed:           rep.shed.Load(),
			Unavailable:    rep.unavailable.Load(),
			Workloads:      len(rep.installed),
			AssignedShards: shardsBy[rep.index],
			LoadScore:      loadBy[rep.index],
		}
		if px := rep.proxy.Load(); px != nil {
			rm.Proxy = px.Metrics()
		}
		tm.Replicas = append(tm.Replicas, rm)
		tm.Proxy.Requests += rm.Proxy.Requests
		tm.Proxy.Inspected += rm.Proxy.Inspected
		tm.Proxy.Denied += rm.Proxy.Denied
		tm.Proxy.Shadowed += rm.Proxy.Shadowed
		tm.Proxy.RawAllowed += rm.Proxy.RawAllowed
		tm.Proxy.RawDenied += rm.Proxy.RawDenied
		tm.Proxy.ValidationTime += rm.Proxy.ValidationTime
	}
	return tm
}

// Telemetry merges the front-door hub and every replica hub into one
// tier snapshot: each (workload, verdict, path) cell's counters and
// histogram buckets are the sums across replicas (telemetry.Merge), so
// tier-level quantiles derive from the same bucket math as a single
// proxy's. Zero-valued when the tier runs without telemetry.
func (pl *Plane) Telemetry() telemetry.Snapshot {
	if pl.front == nil {
		return telemetry.Snapshot{}
	}
	snaps := make([]telemetry.Snapshot, 0, len(pl.replicas)+1)
	snaps = append(snaps, pl.front.Snapshot())
	for _, rep := range pl.replicas {
		snaps = append(snaps, rep.hub.Snapshot())
	}
	return telemetry.Merge(snaps...)
}

// ReplicaTelemetry returns replica i's telemetry hub (nil when out of
// range or when the tier runs without telemetry) — per-replica
// snapshots let an operator see which replica a tier-level anomaly
// lives on.
func (pl *Plane) ReplicaTelemetry(i int) *telemetry.Hub {
	if i < 0 || i >= len(pl.replicas) {
		return nil
	}
	return pl.replicas[i].hub
}

// Traces returns the sampled decision traces across the tier: every
// replica's ring followed by the front door's routing records.
func (pl *Plane) Traces() []telemetry.Trace {
	var out []telemetry.Trace
	for _, rep := range pl.replicas {
		out = append(out, rep.hub.Traces()...)
	}
	if pl.front != nil {
		out = append(out, pl.front.Traces()...)
	}
	return out
}
