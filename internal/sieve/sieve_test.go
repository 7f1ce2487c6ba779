package sieve

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
)

func TestEvictionOrder(t *testing.T) {
	c := New[string, int](3)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("c", 3)
	if _, ok := c.Get("a"); !ok { // refresh a: b is now coldest
		t.Fatal("a missing")
	}
	c.Add("d", 4) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should survive", k)
		}
	}
}

// queue renders c oldest → newest, a visited entry starred.
func queue(c *Cache[string, int]) string {
	var s []string
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		n := el.Value.(*node[string, int])
		if n.visited {
			s = append(s, n.Key+"*")
		} else {
			s = append(s, n.Key)
		}
	}
	return strings.Join(s, " ")
}

// TestHandSkipsVisitedOnce: the hand clears a visited entry's bit and
// passes it by once; an entry not read again goes on the next pass, one
// read again survives it.
func TestHandSkipsVisitedOnce(t *testing.T) {
	c := New[string, int](3)
	for i, k := range []string{"a", "b", "c"} {
		c.Add(k, i)
	}
	c.Get("a")
	c.Get("b")
	for _, step := range []struct {
		reread, add, want string
	}{
		{add: "d", want: "a b d"},               // a and b lose their bits; c goes
		{reread: "b", add: "e", want: "b* d e"}, // the hand wraps to a, unvisited now
		{add: "f", want: "b e f"},               // b is passed by again; d goes
	} {
		if step.reread != "" {
			c.Get(step.reread)
		}
		c.Add(step.add, 0)
		if got := queue(c); got != step.want {
			t.Fatalf("after adding %s: queue %q, want %q", step.add, got, step.want)
		}
	}
}

// TestEntriesOldestFirstRoundTrip: a hit never reorders the queue, and
// replaying the entries through Add rebuilds the same queue with every
// visited bit cleared.
func TestEntriesOldestFirstRoundTrip(t *testing.T) {
	c := New[string, int](8)
	for i := 0; i < 8; i++ {
		c.Add(fmt.Sprintf("k%d", i), i)
	}
	c.Get("k2")
	entries := c.EntriesOldestFirst()
	if len(entries) != 8 {
		t.Fatalf("got %d entries", len(entries))
	}
	for i, e := range entries {
		if want := fmt.Sprintf("k%d", i); e.Key != want || e.Value != i {
			t.Fatalf("entry %d is %v, want %s → %d", i, e, want, i)
		}
	}
	c2 := New[string, int](8)
	for _, e := range entries {
		c2.Add(e.Key, e.Value)
	}
	if got, want := queue(c2), "k0 k1 k2 k3 k4 k5 k6 k7"; got != want {
		t.Fatalf("replayed queue %q, want %q", got, want)
	}
}

// TestZipfHitRatioGate replays cluster-zipf's key law, Zipf(1.1) over
// 4,096 keys, into a cache the size of its front tier's 512-entry L1:
// 300k requests, a miss adding its key, the first 50k as warm-up. SIEVE
// keeps about 0.82 of the rest; LRU keeps 0.77 and fails.
func TestZipfHitRatioGate(t *testing.T) {
	const requests, warmup = 300_000, 50_000
	for seed := uint64(1); seed <= 3; seed++ {
		keys := rand.NewZipf(rand.New(rand.NewPCG(seed, 0)), 1.1, 1, 4095)
		c := New[uint64, struct{}](512)
		hits := 0
		for i := 0; i < requests; i++ {
			k := keys.Uint64()
			if _, ok := c.Get(k); !ok {
				c.Add(k, struct{}{})
			} else if i >= warmup {
				hits++
			}
		}
		if ratio := float64(hits) / (requests - warmup); ratio < 0.80 {
			t.Errorf("seed %d: hit ratio %.4f, want ≥ 0.80", seed, ratio)
		}
	}
}

func TestDisabledCache(t *testing.T) {
	c := New[string, int](0)
	c.Add("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache must not store")
	}
	if c.Len() != 0 {
		t.Fatal("disabled cache must stay empty")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int, int](64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Add((w*500+i)%100, i)
				c.Get(i % 100)
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("len %d exceeds capacity", c.Len())
	}
}
