package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"

	"repro/internal/mutate"
	"repro/internal/object"
	"repro/internal/replay"
	"repro/internal/synth"
	"repro/internal/validator"
)

// stampSentinel marks where a request counter is written into
// metadata.name. The policy generalizes metadata.name to type string, so
// any stamped value keeps the template's verdict while making the body
// (and its decision-cache key) new.
const (
	stampPrefix   = "pfb"
	stampDigits   = 10
	stampSentinel = stampPrefix + "0000000000"
)

// attacksPerWorkload is the attack sample drawn (by seed) from each
// workload's mutation catalog.
const attacksPerWorkload = 4

// zipfExponent is the workload popularity skew: workload shares follow
// 1/(rank+1)^s with ranks dealt by a seeded shuffle, the skew the plane
// experiment models the CMSWEB deployment with.
const zipfExponent = 0.6

// template is one pre-rendered admission request.
type template struct {
	// seen is one more than its workload's publish count when the
	// template was last sent (0 = never sent).
	seen   atomic.Uint64
	method string
	path   string
	yaml   bool
	attack bool
	// body is the manifest as rendered; stampBody carries the sentinel
	// name at stampAt, overwritten per request by a fresh counter.
	body      []byte
	stampBody []byte
	stampAt   int
}

// workloadSet groups one workload's templates by request class.
type workloadSet struct {
	name   string
	user   string
	benign [2][]*template // [json, yaml]
	attack [2][]*template
	reads  []string // GET paths
	// pubs counts the publishes of the workload's policy under load.
	pubs atomic.Uint64
}

// corpus is every request the benchmark can send, built from the synth
// workloads and their mutation catalogs.
type corpus struct {
	workloads []workloadSet
	// cum is the cumulative zipf popularity over workloads.
	cum       []float64
	templates int
	bodyBytes int
}

// zipfPick draws a workload index by popularity.
func (c *corpus) zipfPick(rng *rand.Rand) int {
	x := rng.Float64() * c.cum[len(c.cum)-1]
	return min(sort.SearchFloat64s(c.cum, x), len(c.cum)-1)
}

// buildCorpus renders the request templates. It is the benchmark's own
// body rendering and stays outside setup_s.
func buildCorpus(ws []synth.Workload, seed int64) (*corpus, error) {
	c := &corpus{workloads: make([]workloadSet, len(ws)), cum: make([]float64, len(ws))}
	weights := make([]float64, len(ws))
	for rank, i := range rand.New(rand.NewSource(seed)).Perm(len(ws)) {
		weights[i] = 1 / math.Pow(float64(rank+1), zipfExponent)
	}
	var total float64
	for i, w := range weights {
		total += w
		c.cum[i] = total
	}
	for i := range ws {
		w := &ws[i]
		set := &c.workloads[i]
		set.name, set.user = w.Name, "operator:"+w.Name
		for _, o := range w.Objects {
			for f, yamlWire := range []bool{false, true} {
				t, err := benignTemplate(w.Name, o, yamlWire)
				if err != nil {
					return nil, err
				}
				if t == nil {
					continue
				}
				set.benign[f] = append(set.benign[f], t)
				if !yamlWire {
					set.reads = append(set.reads, t.path)
				}
			}
		}
		scs, err := mutate.ForCatalog(w.Objects, mutate.Options{MaxPerAttackClass: 1})
		if err != nil {
			return nil, err
		}
		sort.Slice(scs, func(a, b int) bool { return scs[a].ID < scs[b].ID })
		rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
		rng.Shuffle(len(scs), func(a, b int) { scs[a], scs[b] = scs[b], scs[a] })
		for _, sc := range scs {
			if len(set.attack[0]) == attacksPerWorkload {
				break
			}
			var pair [2]*template
			for f, yamlWire := range []bool{false, true} {
				t, err := attackTemplate(w.Name, sc, yamlWire)
				if err != nil {
					return nil, err
				}
				pair[f] = t
			}
			if pair[0] == nil || pair[1] == nil {
				continue
			}
			set.attack[0] = append(set.attack[0], pair[0])
			set.attack[1] = append(set.attack[1], pair[1])
		}
		for f := range set.benign {
			if len(set.benign[f]) == 0 || len(set.attack[f]) == 0 {
				return nil, fmt.Errorf("perfbench: workload %s has no stampable benign or attack requests", w.Name)
			}
			for _, t := range append(set.benign[f], set.attack[f]...) {
				c.templates++
				c.bodyBytes += len(t.body)
			}
		}
	}
	return c, nil
}

// withStampName returns a copy of o whose metadata.name carries the
// stamp sentinel, or nil when o has no plain-string name.
func withStampName(o object.Object) object.Object {
	name, ok := object.GetString(o, "metadata.name")
	if !ok || name == "" {
		return nil
	}
	cp := o.DeepCopy()
	if err := object.Set(cp, "metadata.name", name+"-"+stampSentinel); err != nil {
		return nil
	}
	return cp
}

// locateStamp finds the digits of the single sentinel occurrence.
func locateStamp(body []byte) int {
	if bytes.Count(body, []byte(stampSentinel)) != 1 {
		return -1
	}
	return bytes.Index(body, []byte(stampSentinel)) + len(stampPrefix)
}

func benignTemplate(workload string, o object.Object, yamlWire bool) (*template, error) {
	stamped := withStampName(o)
	if stamped == nil {
		return nil, nil
	}
	render := replay.BenignEvent
	if yamlWire {
		render = replay.BenignEventYAML
	}
	ev, err := render(workload, o, "PUT")
	if err != nil {
		return nil, err
	}
	sev, err := render(workload, stamped, "PUT")
	if err != nil {
		return nil, err
	}
	at := locateStamp(sev.Body)
	if at < 0 {
		return nil, nil
	}
	return &template{method: ev.Method, path: ev.Path, yaml: yamlWire,
		body: ev.Body, stampBody: sev.Body, stampAt: at}, nil
}

func attackTemplate(workload string, sc mutate.Scenario, yamlWire bool) (*template, error) {
	stamped := withStampName(sc.Object)
	if stamped == nil {
		return nil, nil
	}
	render := replay.AttackEvent
	if yamlWire {
		render = replay.AttackEventYAML
	} else if sc.YAMLBody {
		// The JSON slot must carry a JSON body; the scenario's own YAML
		// encoding is covered by the YAML slot.
		sc.YAMLBody = false
	}
	ev, err := render(workload, sc)
	if err != nil {
		return nil, err
	}
	ssc := sc
	ssc.Object = stamped
	sev, err := render(workload, ssc)
	if err != nil {
		return nil, err
	}
	at := locateStamp(sev.Body)
	if at < 0 {
		return nil, nil
	}
	return &template{method: ev.Method, path: ev.Path, yaml: yamlWire, attack: true,
		body: ev.Body, stampBody: sev.Body, stampAt: at}, nil
}

// policyCopies builds, for every workload, a second policy object that
// must give the same verdict as the original on every template: churn
// publishes alternate between the two, so every verdict keeps exactly one
// correct answer while generations and caches still turn over.
func policyCopies(ws []synth.Workload) ([][2]*validator.Validator, error) {
	out := make([][2]*validator.Validator, len(ws))
	for i := range ws {
		cp, err := validator.Union(ws[i].Policy.Workload, ws[i].Policy)
		if err != nil {
			return nil, err
		}
		out[i] = [2]*validator.Validator{ws[i].Policy, cp}
	}
	return out, nil
}
