package core

import (
	"encoding/binary"
	"io"
	"math"

	"repro/internal/ctrl"
	"repro/internal/tech"
)

// fingerprintVersion tags the canonical Options encoding; bump it whenever
// a result-affecting field is added, removed or re-ordered so stale cache
// entries keyed on an old encoding can never alias a new request.
const fingerprintVersion = 1

// Fingerprint writes a canonical, order-fixed binary encoding of every
// Options field that can change the routed tree into w. It is the
// request-digesting hook for result caches (internal/serve): two Options
// values with equal fingerprints — routed over the same instance and gate
// policy — produce bit-identical trees.
//
// Deliberately excluded, because the construction is proven bit-identical
// across them (fastpath_test.go, multicore_test.go, obs_test.go): Workers,
// Verify, Tracer, Metrics. FaultInject is excluded too: a fault fails the
// route, so no corrupted tree ever reaches a cache. A cache keyed on the
// fingerprint therefore serves a request routed with any worker count or
// observability setting from one stored result.
//
// Policy is an interface and cannot be encoded generically; callers that
// vary the policy must mix their own policy identity into the digest (a
// nil Policy — the paper's default reduction — needs nothing).
func (o Options) Fingerprint(w io.Writer) {
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		w.Write(buf[:])
	}
	i := func(v int) { u64(uint64(int64(v))) }
	f := func(v float64) { u64(math.Float64bits(v)) }
	b := func(v bool) {
		if v {
			i(1)
		} else {
			i(0)
		}
	}
	str := func(s string) {
		i(len(s))
		io.WriteString(w, s)
	}
	driver := func(d tech.Driver) {
		str(d.Name)
		f(d.Cin)
		f(d.Rout)
		f(d.Dint)
		f(d.Area)
	}

	i(fingerprintVersion)
	i(int(o.Method))
	i(int(o.Drivers))
	f(o.BufferCap)
	b(o.SizeDrivers)
	f(o.SkewBoundPs)

	p := o.Tech
	f(p.WireResPerLambda)
	f(p.WireCapPerLambda)
	f(p.WirePitch)
	f(p.CtrlCapPerLambda)
	f(p.CtrlPitch)
	driver(p.Gate)
	driver(p.Buffer)
	i(len(p.DriveStrengths))
	for _, s := range p.DriveStrengths {
		f(s)
	}
	f(p.SizingTargetPs)

	fingerprintController(w, o.Controller)
}

// fingerprintController encodes the controller configuration (which moves
// the enable-star distances of Equation 3 and therefore the tree). nil —
// the centralized default — is encoded as such, so an explicit
// ctrl.Centralized over the same die hashes differently only through its
// concrete geometry; callers wanting nil ≡ Centralized must resolve before
// fingerprinting (internal/serve does).
func fingerprintController(w io.Writer, c *ctrl.Controller) {
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		w.Write(buf[:])
	}
	f := func(v float64) { u64(math.Float64bits(v)) }
	if c == nil {
		u64(uint64(math.MaxUint64))
		return
	}
	u64(uint64(len(c.Centers)))
	f(c.Die.X0)
	f(c.Die.Y0)
	f(c.Die.X1)
	f(c.Die.Y1)
	for _, p := range c.Centers {
		f(p.X)
		f(p.Y)
	}
	for _, r := range c.Partitions {
		f(r.X0)
		f(r.Y0)
		f(r.X1)
		f(r.Y1)
	}
}
