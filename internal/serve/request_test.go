package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/bench"
)

// digestOf decodes, resolves and digests one JSON body.
func digestOf(t *testing.T, body string) string {
	t.Helper()
	return mustResolve(t, body).Digest()
}

// TestDigestCanonicalization: spellings of the same logical request —
// reordered fields, extra whitespace, defaults made explicit — produce one
// digest; any result-affecting change produces a different one.
func TestDigestCanonicalization(t *testing.T) {
	base := digestOf(t, `{"benchmark":"r1"}`)
	if len(base) != 64 {
		t.Fatalf("digest %q is not hex sha256", base)
	}

	t.Run("equivalent spellings", func(t *testing.T) {
		for name, body := range map[string]string{
			"whitespace":        "  {\n\t\"benchmark\" :\t\"r1\"\n}  ",
			"explicit mode":     `{"benchmark":"r1","mode":"gated-red"}`,
			"explicit defaults": `{"mode":"gated-red","controllers":1,"benchmark":"r1","skewBoundPs":0,"sizeDrivers":false,"bufferCap":0}`,
		} {
			if got := digestOf(t, body); got != base {
				t.Errorf("%s: digest %s differs from plain r1 %s", name, got, base)
			}
		}
	})

	t.Run("config spelled out equals benchmark", func(t *testing.T) {
		// The fully explicit canonical form of r1 — name included — must key
		// the same cache entry as the benchmark shorthand.
		cfg, err := bench.Standard("r1")
		if err != nil {
			t.Fatal(err)
		}
		cfg = cfg.WithDefaults()
		body := fmt.Sprintf(
			`{"config":{"name":%q,"numSinks":%d,"seed":%d,"dieSide":%g,"placement":%q,"minLoad":%g,"maxLoad":%g,"numInstr":%d,"usage":%g,"scatter":%g,"stay":%g,"step":%g,"streamLen":%d}}`,
			cfg.Name, cfg.NumSinks, cfg.Seed, cfg.DieSide, cfg.Placement, cfg.MinLoad, cfg.MaxLoad,
			cfg.NumInstr, cfg.Usage, cfg.Scatter, cfg.Model.Stay, cfg.Model.Step, cfg.StreamLen)
		if got := digestOf(t, body); got != base {
			t.Errorf("explicit config digest %s differs from benchmark r1 %s", got, base)
		}
	})

	t.Run("result-affecting changes diverge", func(t *testing.T) {
		seen := map[string]string{"base": base}
		for name, body := range map[string]string{
			"other benchmark": `{"benchmark":"r2"}`,
			"mode":            `{"benchmark":"r1","mode":"gated"}`,
			"bare mode":       `{"benchmark":"r1","mode":"bare"}`,
			"controllers":     `{"benchmark":"r1","controllers":4}`,
			"skew bound":      `{"benchmark":"r1","skewBoundPs":20}`,
			"driver sizing":   `{"benchmark":"r1","sizeDrivers":true}`,
			"buffer cap":      `{"benchmark":"r1","bufferCap":150}`,
			"stream override": `{"benchmark":"r1","stream":[0,1,2]}`,
		} {
			got := digestOf(t, body)
			for prev, d := range seen {
				if got == d {
					t.Errorf("%s collides with %s: %s", name, prev, got)
				}
			}
			seen[name] = got
		}
	})

	t.Run("digest is stable across resolutions", func(t *testing.T) {
		if digestOf(t, `{"benchmark":"r1"}`) != base {
			t.Error("same body digested twice gave different keys")
		}
	})

	t.Run("placement", func(t *testing.T) {
		// Omitted and explicit uniform are the same canonical request; any
		// other placement is a different geometry and must key separately.
		elided := digestOf(t, `{"config":{"numSinks":64,"seed":3}}`)
		if got := digestOf(t, `{"config":{"numSinks":64,"seed":3,"placement":"uniform"}}`); got != elided {
			t.Errorf("explicit uniform digest %s differs from elided %s", got, elided)
		}
		seen := map[string]string{"uniform": elided}
		for _, p := range []string{"clustered", "hotspot", "ring"} {
			got := digestOf(t, fmt.Sprintf(`{"config":{"numSinks":64,"seed":3,"placement":%q}}`, p))
			for prev, d := range seen {
				if got == d {
					t.Errorf("placement %s collides with %s", p, prev)
				}
			}
			seen[p] = got
		}
		req := mustDecode(t, `{"config":{"numSinks":64,"placement":"spiral"}}`)
		if _, err := req.Resolve(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("unknown placement resolved: %v", err)
		}
	})
}

// TestDecodeStrictness: the decoder owns the strictness guarantees the
// digest relies on.
func TestDecodeStrictness(t *testing.T) {
	if _, err := DecodeRouteRequest([]byte(`{"benchmark":"r1","controlers":2}`)); !errors.Is(err, ErrBadRequest) {
		t.Errorf("typo'd field decoded: %v", err)
	}
	if _, err := DecodeRouteRequest([]byte(`{"benchmark":"r1"}{"benchmark":"r2"}`)); !errors.Is(err, ErrBadRequest) {
		t.Errorf("trailing object decoded: %v", err)
	}
	req, err := DecodeRouteRequest([]byte(`{"benchmark":"r1"}`))
	if err != nil || req.Benchmark != "r1" {
		t.Errorf("plain request: %v, %+v", err, req)
	}
}

// TestResolveDefaults: zero-value knobs resolve to the documented defaults.
func TestResolveDefaults(t *testing.T) {
	rr := mustResolve(t, `{"config":{"numSinks":8}}`)
	if rr.Mode != "gated-red" {
		t.Errorf("default mode %q, want gated-red", rr.Mode)
	}
	if rr.Controllers != 1 {
		t.Errorf("default controllers %d, want 1", rr.Controllers)
	}
	if rr.Cfg.NumInstr == 0 || rr.Cfg.StreamLen == 0 || rr.Cfg.DieSide == 0 {
		t.Errorf("config not canonicalized: %+v", rr.Cfg)
	}
	if err := rr.Opts.Tech.Validate(); err != nil {
		t.Errorf("resolved tech invalid: %v", err)
	}
}

// FuzzDecodeRouteRequest: decoding arbitrary bytes never panics, and any
// body that decodes and resolves must digest deterministically.
func FuzzDecodeRouteRequest(f *testing.F) {
	for _, name := range []string{"r1", "r2", "r3", "r4", "r5"} {
		f.Add([]byte(fmt.Sprintf(`{"benchmark":%q}`, name)))
		f.Add([]byte(fmt.Sprintf(`{"benchmark":%q,"mode":"gated","controllers":4,"skewBoundPs":15,"sizeDrivers":true}`, name)))
	}
	f.Add([]byte(`{"config":{"numSinks":16,"seed":7,"numInstr":6,"streamLen":120},"mode":"gated-red"}`))
	f.Add([]byte(`{"config":{"numSinks":4,"stay":0.5,"step":0.25},"stream":[0,1,2,3,0]}`))
	f.Add([]byte(`{"benchmark":"r1","timeoutMs":500,"background":true}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"benchmark":`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRouteRequest(data)
		if err != nil {
			if req != nil {
				t.Fatal("non-nil request returned with an error")
			}
			return
		}
		rr, err := req.Resolve()
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("Resolve failure not wrapping ErrBadRequest: %v", err)
			}
			return
		}
		d1 := rr.Digest()
		if len(d1) != 64 {
			t.Fatalf("digest %q is not hex sha256", d1)
		}
		// Round-trip: re-decoding the same bytes must reproduce the key.
		req2, err := DecodeRouteRequest(data)
		if err != nil {
			t.Fatalf("second decode of accepted body failed: %v", err)
		}
		rr2, err := req2.Resolve()
		if err != nil {
			t.Fatalf("second resolve of accepted body failed: %v", err)
		}
		if d2 := rr2.Digest(); d2 != d1 {
			t.Fatalf("digest unstable: %s vs %s", d1, d2)
		}
	})
}

// TestMarshalRoundTrip: a decoded request re-marshals to an equivalent
// request (the wire struct hides nothing).
func TestMarshalRoundTrip(t *testing.T) {
	body := `{"config":{"numSinks":16,"seed":7,"numInstr":6,"streamLen":120},"mode":"gated","controllers":2,"skewBoundPs":10}`
	req := mustDecode(t, body)
	out, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rr1, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	rr2, err := mustDecode(t, string(out)).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if rr1.Digest() != rr2.Digest() {
		t.Error("marshal round trip changed the digest")
	}
}

func mustDecode(t *testing.T, body string) *RouteRequest {
	t.Helper()
	req, err := DecodeRouteRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return req
}
