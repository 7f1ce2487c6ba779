package core

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/tech"
)

func fingerprintBytes(o Options) []byte {
	var buf bytes.Buffer
	o.Fingerprint(&buf)
	return buf.Bytes()
}

func fingerprintBase() Options {
	return Options{Method: MinSwitchedCap, Drivers: GatedTree, Tech: tech.Default()}
}

// TestFingerprintCoversResultAffectingFields: each field that changes the
// routed tree changes the fingerprint.
func TestFingerprintCoversResultAffectingFields(t *testing.T) {
	base := fingerprintBytes(fingerprintBase())
	mutations := map[string]func(*Options){
		"method":      func(o *Options) { o.Method = MinClockCapOnly },
		"drivers":     func(o *Options) { o.Drivers = BufferedTree },
		"bufferCap":   func(o *Options) { o.BufferCap = 99 },
		"sizeDrivers": func(o *Options) { o.SizeDrivers = true },
		"skewBound":   func(o *Options) { o.SkewBoundPs = 12.5 },
		"tech wire":   func(o *Options) { o.Tech.WireCapPerLambda *= 2 },
		"tech ctrl":   func(o *Options) { o.Tech.CtrlCapPerLambda *= 2 },
		"tech gate":   func(o *Options) { o.Tech.Gate.Cin *= 2 },
		"tech buffer": func(o *Options) { o.Tech.Buffer.Rout *= 2 },
		"tech sizing": func(o *Options) { o.Tech.SizingTargetPs += 10 },
		"tech strengths": func(o *Options) {
			o.Tech.DriveStrengths = append(append([]float64(nil), o.Tech.DriveStrengths...), 42)
		},
	}
	for name, mutate := range mutations {
		o := fingerprintBase()
		mutate(&o)
		if bytes.Equal(fingerprintBytes(o), base) {
			t.Errorf("%s: fingerprint did not change", name)
		}
	}
}

// TestFingerprintIgnoresResultNeutralFields: scheduling and observability
// knobs proven result-identical must not change the key, or caches keyed on
// the fingerprint would fragment.
func TestFingerprintIgnoresResultNeutralFields(t *testing.T) {
	base := fingerprintBytes(fingerprintBase())
	neutral := map[string]func(*Options){
		"workers": func(o *Options) { o.Workers = 8 },
		"verify":  func(o *Options) { o.Verify = true },
		"metrics": func(o *Options) { o.Metrics = obs.NewRegistry() },
	}
	for name, mutate := range neutral {
		o := fingerprintBase()
		mutate(&o)
		if !bytes.Equal(fingerprintBytes(o), base) {
			t.Errorf("%s: result-neutral field changed the fingerprint", name)
		}
	}
}

// TestFingerprintDeterministic: identical options fingerprint identically
// across calls, and the encoding is non-empty.
func TestFingerprintDeterministic(t *testing.T) {
	a := fingerprintBytes(fingerprintBase())
	b := fingerprintBytes(fingerprintBase())
	if !bytes.Equal(a, b) {
		t.Fatal("fingerprint of identical options differs between calls")
	}
	if len(a) == 0 {
		t.Fatal("empty fingerprint")
	}
}
