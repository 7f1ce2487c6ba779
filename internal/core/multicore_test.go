package core

import (
	"fmt"
	"testing"

	"repro/internal/gating"
	"repro/internal/tech"
)

// TestMulticoreDigestProperty is the determinism contract of the fast
// path's one parallel phase — the initial best-partner scan, which fans
// out across workers once it holds 64 or more searches: routing the same
// instance at Workers ∈ {1, 2, 8} must produce bit-identical trees. A
// search that read state another worker writes, or any schedule-dependent
// tie-break, would flip a digest.
//
// The test runs under -short (with a reduced corpus) on purpose: `make
// race` leans on it to catch data races between search workers.
func TestMulticoreDigestProperty(t *testing.T) {
	p := tech.Default()
	modes := []Options{
		{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree},
		{Tech: p, Method: MinSwitchedCap, Drivers: GatedTree, Policy: gating.All{}},
		{Tech: p, Method: MinClockCapOnly, Drivers: GatedTree},
		{Tech: p, Method: GreedyDistance, Drivers: BareTree},
	}
	kinds := []string{"uniform", "clustered", "hotspot", "ring", "dup", "line"}

	cases := 200
	if testing.Short() {
		cases = 48
	}
	for i := 0; i < cases; i++ {
		kind := kinds[i%len(kinds)]
		opts := modes[(i/len(kinds))%len(modes)]
		n := 64 + (i*17)%144
		name := fmt.Sprintf("%03d-%s-%s-n%d", i, kind, opts.Method, n)
		in := placedInstance(t, kind, n, 8, uint64(7000+i))

		var ref string
		for _, wk := range []int{1, 2, 8} {
			o := opts
			o.Workers = wk
			tr, _, err := Route(in, o)
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", name, wk, err)
			}
			d := tr.Digest()
			if wk == 1 {
				ref = d
			} else if d != ref {
				t.Fatalf("%s: workers=%d tree %s != workers=1 tree %s",
					name, wk, d[:12], ref[:12])
			}
		}
	}
}
