package faultinject

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNoneIsNil(t *testing.T) {
	if New(Plan{Mode: None}) != nil {
		t.Fatal("a None plan must yield the nil (production) injector")
	}
	// All hooks must be nil-safe no-ops.
	var i *Injector
	if i.MemoCost(3) != 3 || i.HeapCost(4) != 4 || i.MergedP(0.5) != 0.5 || i.Fired() {
		t.Fatal("nil injector altered a value")
	}
	i.CheckPanic()
}

func TestFiresExactlyOnceAtNth(t *testing.T) {
	i := New(Plan{Mode: CorruptMemo, Nth: 2})
	for k := 0; k < 6; k++ {
		got := i.MemoCost(7)
		if k == 2 && got >= 0 {
			t.Fatalf("call %d: fault did not fire", k)
		}
		if k != 2 && got != 7 {
			t.Fatalf("call %d: value altered to %v", k, got)
		}
	}
	if !i.Fired() {
		t.Fatal("Fired not recorded")
	}
}

func TestModeFiltering(t *testing.T) {
	i := New(Plan{Mode: CorruptHeap, Nth: 0})
	if i.MemoCost(1) != 1 || i.MergedP(0.2) != 0.2 {
		t.Fatal("wrong-mode hook consumed the event")
	}
	i.CheckPanic()
	if !math.IsInf(i.HeapCost(1), -1) {
		t.Fatal("planned heap fault did not fire")
	}
}

func TestPanicMode(t *testing.T) {
	i := New(Plan{Mode: PanicMergeLoop, Nth: 0})
	defer func() {
		if recover() == nil {
			t.Fatal("CheckPanic did not panic")
		}
		if !i.Fired() {
			t.Fatal("Fired not recorded")
		}
	}()
	i.CheckPanic()
}

func TestConcurrentCountdownFiresOnce(t *testing.T) {
	i := New(Plan{Mode: CorruptMemo, Nth: 50})
	var fired sync.Map
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := 0
			for k := 0; k < 100; k++ {
				if i.MemoCost(1) < 0 {
					n++
				}
			}
			fired.Store(w, n)
		}(w)
	}
	wg.Wait()
	total := 0
	fired.Range(func(_, v any) bool { total += v.(int); return true })
	if total != 1 {
		t.Fatalf("fault fired %d times, want exactly 1", total)
	}
}

func TestScheduleExactRate(t *testing.T) {
	if NewSchedule(1, 0) != nil || NewSchedule(1, -5) != nil {
		t.Fatal("non-positive period must yield the nil (never-fires) schedule")
	}
	var nilSched *Schedule
	if nilSched.Next() {
		t.Fatal("nil schedule fired")
	}

	const period, windows = 50, 8
	s := NewSchedule(42, period)
	total := 0
	for w := 0; w < windows; w++ {
		fires := 0
		for k := 0; k < period; k++ {
			if s.Next() {
				fires++
			}
		}
		if fires != 1 {
			t.Fatalf("window %d fired %d times, want exactly 1", w, fires)
		}
		total += fires
	}
	if total != windows {
		t.Fatalf("%d draws fired %d times, want %d", period*windows, total, windows)
	}
}

func TestScheduleDeterministicAcrossSeeds(t *testing.T) {
	// Same seed: identical firing pattern. Different seeds: different
	// phases (at least sometimes, over several windows).
	pattern := func(seed uint64) []bool {
		s := NewSchedule(seed, 10)
		out := make([]bool, 60)
		for i := range out {
			out[i] = s.Next()
		}
		return out
	}
	a, b := pattern(7), pattern(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := pattern(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical 60-draw patterns — phase not seed-derived")
	}
}

func TestScheduleConcurrentCountExact(t *testing.T) {
	// The firing count over N draws is exact no matter how callers
	// interleave: each window of `period` draws fires once.
	const period, total = 25, 1000
	s := NewSchedule(3, period)
	var wg sync.WaitGroup
	var fired atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < total/8; k++ {
				if s.Next() {
					fired.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := fired.Load(); got != total/period {
		t.Fatalf("%d draws at period %d fired %d times, want %d", total, period, got, total/period)
	}
}

func TestNthFromSeed(t *testing.T) {
	if NthFromSeed(1, 0) != 0 || NthFromSeed(1, -3) != 0 {
		t.Fatal("degenerate spans must map to 0")
	}
	seen := map[int]bool{}
	for s := uint64(0); s < 64; s++ {
		n := NthFromSeed(s, 97)
		if n != NthFromSeed(s, 97) {
			t.Fatal("not deterministic")
		}
		if n < 0 || n >= 97 {
			t.Fatalf("seed %d: %d outside [0, 97)", s, n)
		}
		seen[n] = true
	}
	if len(seen) < 20 {
		t.Fatalf("seeds map to only %d distinct points — mix too weak", len(seen))
	}
}
