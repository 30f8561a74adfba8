// Package faultinject provides deterministic, seedable fault injection for
// resilience testing: error returns and latency injection at named call
// sites.
//
// A caller threads a *Injector (nil means "no faults, zero cost") into the
// code under test and names each failure-prone seam with a site string,
// e.g. "snapshot.write" or "handler.panic". Rules attach to sites and
// decide per call whether a fault fires — either on a fixed cadence
// (Every) or with a seeded pseudo-random probability. Because every
// probabilistic rule owns its own RNG stream derived from (seed, site,
// rule index), a fixed number of calls to a site always produces the same
// number of fires, independent of goroutine interleaving: chaos runs are
// reproducible in aggregate, which is what digest-style determinism checks
// need.
//
// The package has no dependencies beyond the standard library and is safe
// for concurrent use.
package faultinject

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"
)

// ErrInjected is the default error a firing rule returns from Check.
var ErrInjected = errors.New("faultinject: injected fault")

// Rule describes when and how faults fire at one site.
type Rule struct {
	// Site names the seam the rule attaches to.
	Site string
	// Every fires on every Every-th eligible call (1 = every call).
	// When zero, Probability governs firing instead.
	Every int
	// Probability of firing per eligible call, used when Every == 0.
	// Draws come from a per-rule seeded RNG, so N calls always see the
	// same number of fires regardless of call interleaving.
	Probability float64
	// After exempts the first After calls to the site from this rule.
	After int
	// Times caps the total number of fires (0 = unlimited).
	Times int
	// Err is what Check returns when the rule fires. Nil means
	// ErrInjected — unless the rule carries a Delay, in which case a nil
	// Err makes it a pure slowdown (Check sleeps and returns nil).
	Err error
	// Delay is slept (outside the injector's lock) when the rule fires.
	Delay time.Duration
}

// SiteStats reports one site's call/fire counters.
type SiteStats struct {
	Calls uint64 `json:"calls"`
	Fires uint64 `json:"fires"`
}

// Injector evaluates rules at named sites. The zero value and the nil
// pointer both inject nothing; construct firing injectors with New.
type Injector struct {
	mu    sync.Mutex
	sites map[string][]*ruleState
	calls map[string]uint64
}

type ruleState struct {
	rule  Rule
	rng   *splitmixRNG
	calls uint64
	fires uint64
}

// New builds an injector firing the given rules, with all probabilistic
// draws derived deterministically from seed.
func New(seed int64, rules ...Rule) *Injector {
	in := &Injector{
		sites: make(map[string][]*ruleState),
		calls: make(map[string]uint64),
	}
	for i, r := range rules {
		h := fnv.New64a()
		h.Write([]byte(r.Site))
		rs := &ruleState{
			rule: r,
			rng:  newSplitmixRNG(uint64(seed) ^ h.Sum64() ^ (uint64(i)+1)<<32),
		}
		in.sites[r.Site] = append(in.sites[r.Site], rs)
	}
	return in
}

// Check evaluates site's rules in order: each firing rule contributes its
// Delay (slept after the lock is released) and the first firing rule with
// an effective error decides the return value. A nil receiver, an unknown
// site, and a call on which no rule fires all return nil immediately.
func (in *Injector) Check(site string) error {
	if in == nil {
		return nil
	}
	var delay time.Duration
	var err error
	in.mu.Lock()
	in.calls[site]++
	for _, rs := range in.sites[site] {
		if !rs.fire() {
			continue
		}
		delay += rs.rule.Delay
		if err == nil {
			err = rs.effectiveErr()
		}
	}
	in.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return err
}

// Stats returns per-site counters for every site that has rules or has
// been evaluated, keyed by site name.
func (in *Injector) Stats() map[string]SiteStats {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]SiteStats)
	for site, calls := range in.calls {
		out[site] = SiteStats{Calls: calls}
	}
	for site, rules := range in.sites {
		st := out[site]
		for _, rs := range rules {
			st.Fires += rs.fires
		}
		out[site] = st
	}
	return out
}

// String summarizes the injector's activity, sites in sorted order.
func (in *Injector) String() string {
	if in == nil {
		return "faultinject: disabled"
	}
	stats := in.Stats()
	names := make([]string, 0, len(stats))
	for s := range stats {
		names = append(names, s)
	}
	sort.Strings(names)
	out := "faultinject:"
	for _, s := range names {
		out += fmt.Sprintf(" %s=%d/%d", s, stats[s].Fires, stats[s].Calls)
	}
	return out
}

// fire records one eligible-call evaluation under the injector lock and
// reports whether the rule fires on it.
func (rs *ruleState) fire() bool {
	rs.calls++
	if rs.calls <= uint64(rs.rule.After) {
		return false
	}
	if rs.rule.Times > 0 && rs.fires >= uint64(rs.rule.Times) {
		return false
	}
	hit := false
	switch {
	case rs.rule.Every > 0:
		hit = (rs.calls-uint64(rs.rule.After))%uint64(rs.rule.Every) == 0
	case rs.rule.Probability > 0:
		hit = rs.rng.float64() < rs.rule.Probability
	}
	if hit {
		rs.fires++
	}
	return hit
}

func (rs *ruleState) effectiveErr() error {
	if rs.rule.Err != nil {
		return rs.rule.Err
	}
	if rs.rule.Delay > 0 {
		return nil // pure slowdown
	}
	return ErrInjected
}

// splitmixRNG is a tiny self-contained SplitMix64 generator: enough for
// fault-probability draws without dragging in math/rand state.
type splitmixRNG struct{ state uint64 }

func newSplitmixRNG(seed uint64) *splitmixRNG { return &splitmixRNG{state: seed} }

func (g *splitmixRNG) next() uint64 {
	g.state += 0x9E3779B97F4A7C15
	x := g.state
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// float64 returns a uniform sample in [0, 1).
func (g *splitmixRNG) float64() float64 {
	return float64(g.next()>>11) / (1 << 53)
}
