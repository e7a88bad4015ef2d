package registry

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestTenantParsing(t *testing.T) {
	cases := []struct{ name, tenant string }{
		{"default", ""},
		{"acme/users", "acme"},
		{"acme/a/b", "acme"},
		{"/leading", ""},
		{"", ""},
	}
	for _, c := range cases {
		if got := Tenant(c.name); got != c.tenant {
			t.Errorf("Tenant(%q) = %q, want %q", c.name, got, c.tenant)
		}
	}
}

func TestRegisterLookupUnregister(t *testing.T) {
	r := New[int](8, Quota{})
	if _, _, err := r.Register("acme/a", 1, 100); err != nil {
		t.Fatal(err)
	}
	if old, replaced, err := r.Register("acme/b", 2, 200); err != nil || replaced || old != 0 {
		t.Fatalf("first Register(acme/b) = %d, %v, %v", old, replaced, err)
	}
	if v, ok := r.Get("acme/a"); !ok || v != 1 {
		t.Fatalf("Get(acme/a) = %d, %v", v, ok)
	}
	if _, ok := r.Get("acme/missing"); ok {
		t.Fatal("Get of missing name succeeded")
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	sets, bytes, _ := r.TenantUsage("acme")
	if sets != 2 || bytes != 300 {
		t.Fatalf("usage = %d sets / %d bytes, want 2/300", sets, bytes)
	}

	// Re-register charges only the delta, and returns the value it replaced.
	if old, replaced, err := r.Register("acme/a", 3, 150); err != nil || !replaced || old != 1 {
		t.Fatalf("re-Register(acme/a) = %d, %v, %v; want 1, true", old, replaced, err)
	}
	if v, _ := r.Get("acme/a"); v != 3 {
		t.Fatal("re-register did not swap value")
	}
	if _, bytes, _ := r.TenantUsage("acme"); bytes != 350 {
		t.Fatalf("bytes after re-register = %d, want 350", bytes)
	}

	if r.Unregister("acme/a", 1) {
		t.Fatal("Unregister removed a value the name no longer holds")
	}
	if !r.Unregister("acme/a", 3) {
		t.Fatal("Unregister of the value the name holds failed")
	}
	if r.Unregister("acme/a", 3) {
		t.Fatal("double Unregister succeeded")
	}
	sets, bytes, _ = r.TenantUsage("acme")
	if sets != 1 || bytes != 200 || r.Len() != 1 {
		t.Fatalf("after unregister: %d sets / %d bytes / Len %d", sets, bytes, r.Len())
	}
}

// TestRecharge: a recharge re-charges only the value it names, under the
// byte quota, and leaves a name that is gone or swapped alone.
func TestRecharge(t *testing.T) {
	r := New[int](4, Quota{MaxBytes: 1000})
	if _, _, err := r.Register("acme/a", 1, 100); err != nil {
		t.Fatal(err)
	}
	if same, err := r.Recharge("acme/a", 1, 400); !same || err != nil {
		t.Fatalf("Recharge of the registered value = %v, %v", same, err)
	}
	var qe *QuotaError
	if _, err := r.Recharge("acme/a", 1, 2000); !errors.As(err, &qe) || qe.Resource != "bytes" {
		t.Fatalf("Recharge over the byte quota: %v", err)
	}
	if same, err := r.Recharge("acme/a", 2, 500); same || err != nil {
		t.Fatalf("Recharge of another value = %v, %v", same, err)
	}
	if same, err := r.Recharge("acme/missing", 1, 500); same || err != nil {
		t.Fatalf("Recharge of a missing name = %v, %v", same, err)
	}
	if sets, bytes, _ := r.TenantUsage("acme"); sets != 1 || bytes != 400 || r.Len() != 1 {
		t.Fatalf("usage = %d sets / %d bytes / Len %d, want 1/400/1", sets, bytes, r.Len())
	}
}

func TestQuotaSets(t *testing.T) {
	r := New[int](4, Quota{MaxSets: 2})
	if _, _, err := r.Register("t/a", 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Register("t/b", 1, 0); err != nil {
		t.Fatal(err)
	}
	_, _, err := r.Register("t/c", 1, 0)
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Resource != "sets" || qe.Tenant != "t" {
		t.Fatalf("want sets QuotaError, got %v", err)
	}
	if qe.Transient() {
		t.Fatal("sets quota must not be transient")
	}
	// Re-registering an existing name is not a new set.
	if _, _, err := r.Register("t/a", 2, 0); err != nil {
		t.Fatalf("re-register under full set quota: %v", err)
	}
	// Another tenant is unaffected.
	if _, _, err := r.Register("u/a", 1, 0); err != nil {
		t.Fatal(err)
	}
	// Freeing a slot re-admits.
	r.Unregister("t/b", 1)
	if _, _, err := r.Register("t/c", 1, 0); err != nil {
		t.Fatalf("register after free: %v", err)
	}
}

func TestQuotaBytes(t *testing.T) {
	r := New[int](4, Quota{MaxBytes: 1000})
	if _, _, err := r.Register("t/a", 1, 800); err != nil {
		t.Fatal(err)
	}
	_, _, err := r.Register("t/b", 1, 300)
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Resource != "bytes" {
		t.Fatalf("want bytes QuotaError, got %v", err)
	}
	// The failed registration must not leak its set reservation.
	if sets, _, _ := r.TenantUsage("t"); sets != 1 {
		t.Fatalf("sets leaked to %d after failed byte reservation", sets)
	}
	// Shrinking an existing set frees budget.
	if _, _, err := r.Register("t/a", 1, 500); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Register("t/b", 1, 300); err != nil {
		t.Fatalf("register after shrink: %v", err)
	}
}

func TestQuotaSessions(t *testing.T) {
	r := New[int](4, Quota{MaxSessions: 2})
	if err := r.BeginSession("t/a"); err != nil {
		t.Fatal(err)
	}
	if err := r.BeginSession("t/b"); err != nil {
		t.Fatal(err)
	}
	err := r.BeginSession("t/a")
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Resource != "sessions" {
		t.Fatalf("want sessions QuotaError, got %v", err)
	}
	if !qe.Transient() {
		t.Fatal("sessions quota must be transient")
	}
	r.EndSession("t/b")
	if err := r.BeginSession("t/a"); err != nil {
		t.Fatalf("BeginSession after drain: %v", err)
	}
}

func TestSetQuotaOverride(t *testing.T) {
	r := New[int](4, Quota{MaxSets: 1})
	r.SetQuota("big", Quota{MaxSets: 100})
	for i := 0; i < 10; i++ {
		if _, _, err := r.Register(fmt.Sprintf("big/s%d", i), i, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := r.Register("small/a", 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Register("small/b", 1, 0); err == nil {
		t.Fatal("default quota not applied to other tenant")
	}
}

// TestConcurrentHammer drives Register/Unregister/Get/Begin/EndSession
// from 64 goroutines across many shards and tenants under -race, then
// checks the accounting gauges settle to exactly zero.
func TestConcurrentHammer(t *testing.T) {
	r := New[int](16, Quota{MaxSets: 1 << 30, MaxBytes: 1 << 40, MaxSessions: 1 << 20})
	const goroutines = 64
	const iters = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("t%d/s%d", g%8, i%32)
				switch i % 4 {
				case 0:
					if _, _, err := r.Register(name, i, int64(i%128)); err != nil {
						t.Error(err)
						return
					}
				case 1:
					r.Get(name)
				case 2:
					if err := r.BeginSession(name); err != nil {
						t.Error(err)
						return
					}
					r.EndSession(name)
				case 3:
					if v, ok := r.Get(name); ok {
						r.Unregister(name, v)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Drain every name the goroutines used and verify no reservation leaked.
	for tnt := 0; tnt < 8; tnt++ {
		for i := 0; i < 32; i++ {
			name := fmt.Sprintf("t%d/s%d", tnt, i)
			if v, ok := r.Get(name); ok {
				r.Unregister(name, v)
			}
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after drain", r.Len())
	}
	for tnt := 0; tnt < 8; tnt++ {
		sets, bytes, sessions := r.TenantUsage(fmt.Sprintf("t%d", tnt))
		if sets != 0 || bytes != 0 || sessions != 0 {
			t.Fatalf("tenant t%d leaked: %d sets / %d bytes / %d sessions", tnt, sets, bytes, sessions)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	r := New[int](0, Quota{})
	names := make([]string, 1024)
	for i := range names {
		names[i] = fmt.Sprintf("t%d/set-%d", i%32, i)
		if _, _, err := r.Register(names[i], i, 8); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			r.Get(names[i&1023])
			i++
		}
	})
}
