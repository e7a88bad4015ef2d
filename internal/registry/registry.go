// Package registry implements the sharded, multi-tenant set registry
// behind the pbs Server: a striped name → value map built for millions of
// entries under heavy concurrent lookup, plus per-tenant admission
// accounting (sets, logical bytes, concurrent sessions) with quotas.
//
// The registry is striped into a power-of-two number of shards keyed by a
// hash of the set name; every shard carries its own RWMutex, so the
// lookup fast path (session admission) takes one shared lock on 1/Nth of
// the key space and registration on one shard never blocks lookups on the
// others. Tenant accounting is kept out of the lookup path entirely: a
// lookup touches only its shard, while Register/Begin-session go through
// the tenant table (a sync.Map of atomic counters) where quota
// check-and-increment runs as a CAS loop — no global lock anywhere.
//
// Names are namespaced "tenant/setname": everything before the first '/'
// is the tenant; a name without a slash belongs to the default tenant "".
package registry

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultShards is the shard count New uses when given n <= 0. 64 shards
// keep the per-shard maps small enough to resize cheaply and make
// registration contention negligible at typical core counts.
const DefaultShards = 64

// Tenant returns the tenant namespace of a set name: the prefix before
// the first '/', or "" (the default tenant) for an unqualified name.
func Tenant(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '/' {
			return name[:i]
		}
	}
	return ""
}

// Quota bounds one tenant's footprint. Zero fields are unlimited.
type Quota struct {
	// MaxSets caps the number of registered sets.
	MaxSets int64
	// MaxBytes caps the summed logical size (as charged at registration,
	// typically 8 bytes per element) of the tenant's sets — resident or
	// not; the resident-memory watermark is a separate, global concern of
	// the store layer.
	MaxBytes int64
	// MaxSessions caps concurrently admitted sessions across all of the
	// tenant's sets.
	MaxSessions int64
}

// QuotaError reports a quota violation. Resource is "sets", "bytes", or
// "sessions"; Transient reports whether waiting can clear it (sessions
// drain on their own; sets and bytes only move when the tenant
// unregisters data).
type QuotaError struct {
	Tenant   string
	Resource string
	Used     int64
	Limit    int64
}

func (e *QuotaError) Error() string {
	t := e.Tenant
	if t == "" {
		t = "(default)"
	}
	return fmt.Sprintf("registry: tenant %s over %s quota (%d of %d)", t, e.Resource, e.Used, e.Limit)
}

// Transient reports whether the violated resource frees itself over time:
// concurrent sessions drain, while set-count and byte quotas stay
// exhausted until the tenant removes data.
func (e *QuotaError) Transient() bool { return e.Resource == "sessions" }

// tenantState is one tenant's accounting: live atomic gauges plus the
// quota they are checked against. Quota fields are stored atomically so
// SetQuota can retarget a live tenant without a lock on the hot path.
type tenantState struct {
	sets     atomic.Int64
	bytes    atomic.Int64
	sessions atomic.Int64

	maxSets     atomic.Int64
	maxBytes    atomic.Int64
	maxSessions atomic.Int64
}

func (t *tenantState) setQuota(q Quota) {
	t.maxSets.Store(q.MaxSets)
	t.maxBytes.Store(q.MaxBytes)
	t.maxSessions.Store(q.MaxSessions)
}

// reserve atomically adds delta to gauge if the result stays within limit
// (0 = unlimited); it reports the gauge value that made it fail.
func reserve(gauge *atomic.Int64, delta, limit int64) (int64, bool) {
	for {
		cur := gauge.Load()
		next := cur + delta
		if limit > 0 && delta > 0 && next > limit {
			return cur, false
		}
		if gauge.CompareAndSwap(cur, next) {
			return next, true
		}
	}
}

// entry wraps a stored value with the bytes it was charged for, so
// Unregister can release exactly what Register reserved.
type entry[V any] struct {
	v     V
	bytes int64
}

type shard[V any] struct {
	mu sync.RWMutex
	m  map[string]entry[V]
	// Pad shards apart so one shard's lock traffic does not false-share
	// cache lines with its neighbors.
	_ [40]byte
}

// Registry is the sharded, tenant-accounted name → value map. The zero
// value is not usable; construct with New.
type Registry[V comparable] struct {
	shards []shard[V]
	mask   uint64
	count  atomic.Int64

	defQuota Quota
	tenants  sync.Map // tenant string → *tenantState
}

// New returns a registry striped over the given shard count (rounded up
// to a power of two; <= 0 selects DefaultShards). defQuota applies to
// every tenant without an explicit SetQuota override.
func New[V comparable](shards int, defQuota Quota) *Registry[V] {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	r := &Registry[V]{shards: make([]shard[V], n), mask: uint64(n - 1), defQuota: defQuota}
	for i := range r.shards {
		r.shards[i].m = make(map[string]entry[V])
	}
	return r
}

// hash is FNV-1a 64: cheap, allocation-free, and well-spread over short
// "tenant/name" strings.
func hash(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}

func (r *Registry[V]) shard(name string) *shard[V] {
	return &r.shards[hash(name)&r.mask]
}

// tenant returns the accounting state for a tenant, creating it under the
// default quota on first touch.
func (r *Registry[V]) tenant(name string) *tenantState {
	t := Tenant(name)
	if ts, ok := r.tenants.Load(t); ok {
		return ts.(*tenantState)
	}
	ts := &tenantState{}
	ts.setQuota(r.defQuota)
	if prev, loaded := r.tenants.LoadOrStore(t, ts); loaded {
		return prev.(*tenantState)
	}
	return ts
}

// SetQuota overrides the quota of one tenant (by tenant name, not set
// name). It applies to future reservations; gauges already over the new
// limit drain naturally.
func (r *Registry[V]) SetQuota(tenant string, q Quota) {
	ts, _ := r.tenants.LoadOrStore(tenant, &tenantState{})
	ts.(*tenantState).setQuota(q)
}

// Get returns the value registered under name. This is the admission fast
// path: one shared lock on one shard, no tenant-table traffic.
func (r *Registry[V]) Get(name string) (V, bool) {
	sh := r.shard(name)
	sh.mu.RLock()
	e, ok := sh.m[name]
	sh.mu.RUnlock()
	return e.v, ok
}

// Len returns the total number of registered sets.
func (r *Registry[V]) Len() int { return int(r.count.Load()) }

// Register publishes v under name, charging bytes against the tenant's
// byte quota and one set against its set quota. Re-registering an existing
// name swaps the value in place, re-charging only the byte delta, and
// returns the value it replaced. It returns a *QuotaError when the tenant
// is over quota, with nothing changed.
func (r *Registry[V]) Register(name string, v V, bytes int64) (old V, replaced bool, err error) {
	return r.put(name, v, bytes, false)
}

// Recharge re-charges the entry under name to bytes, provided name still
// holds v; it reports false, with nothing changed, when name is gone or
// holds another value. A quota failure is Register's.
func (r *Registry[V]) Recharge(name string, v V, bytes int64) (bool, error) {
	_, same, err := r.put(name, v, bytes, true)
	return same, err
}

// put is Register, or under onlySame Recharge. It returns the value name
// held before and whether it held one; a refusal returns neither.
func (r *Registry[V]) put(name string, v V, bytes int64, onlySame bool) (V, bool, error) {
	var none V
	ts := r.tenant(name)
	sh := r.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old, existed := sh.m[name]
	if onlySame && (!existed || old.v != v) {
		return none, false, nil
	}
	if !existed {
		if used, ok := reserve(&ts.sets, 1, ts.maxSets.Load()); !ok {
			return none, false, &QuotaError{Tenant: Tenant(name), Resource: "sets", Used: used, Limit: ts.maxSets.Load()}
		}
	}
	delta := bytes
	if existed {
		delta -= old.bytes
	}
	if used, ok := reserve(&ts.bytes, delta, ts.maxBytes.Load()); !ok {
		if !existed {
			ts.sets.Add(-1)
		}
		return none, false, &QuotaError{Tenant: Tenant(name), Resource: "bytes", Used: used, Limit: ts.maxBytes.Load()}
	}
	sh.m[name] = entry[V]{v: v, bytes: bytes}
	if !existed {
		r.count.Add(1)
	}
	return old.v, existed, nil
}

// Unregister removes name if it still holds v — Recharge's same-value
// check — releasing its set and byte reservations, and reports whether it
// did.
func (r *Registry[V]) Unregister(name string, v V) bool {
	sh := r.shard(name)
	sh.mu.Lock()
	e, ok := sh.m[name]
	if ok = ok && e.v == v; ok {
		delete(sh.m, name)
	}
	sh.mu.Unlock()
	if ok {
		ts := r.tenant(name)
		ts.sets.Add(-1)
		ts.bytes.Add(-e.bytes)
		r.count.Add(-1)
	}
	return ok
}

// BeginSession reserves one concurrent-session slot against the tenant of
// name, returning a *QuotaError (Transient) when the tenant is at its
// session quota. Every successful call must be paired with EndSession.
func (r *Registry[V]) BeginSession(name string) error {
	ts := r.tenant(name)
	if used, ok := reserve(&ts.sessions, 1, ts.maxSessions.Load()); !ok {
		return &QuotaError{Tenant: Tenant(name), Resource: "sessions", Used: used, Limit: ts.maxSessions.Load()}
	}
	return nil
}

// EndSession releases a BeginSession reservation.
func (r *Registry[V]) EndSession(name string) {
	r.tenant(name).sessions.Add(-1)
}

// TenantUsage reports a tenant's current accounting gauges (sets, bytes,
// sessions), for metrics and tests.
func (r *Registry[V]) TenantUsage(tenant string) (sets, bytes, sessions int64) {
	ts, ok := r.tenants.Load(tenant)
	if !ok {
		return 0, 0, 0
	}
	t := ts.(*tenantState)
	return t.sets.Load(), t.bytes.Load(), t.sessions.Load()
}
