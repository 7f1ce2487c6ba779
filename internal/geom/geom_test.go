package geom

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 7},
		{Point{-1, -1}, Point{1, 1}, 4},
		{Point{2.5, 0}, Point{0, 2.5}, 5},
	}
	for _, c := range cases {
		if got := Dist(c.p, c.q); got != c.want {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestDistProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	symmetry := func(ax, ay, bx, by float64) bool {
		a, b := Point{trim(ax), trim(ay)}, Point{trim(bx), trim(by)}
		return Dist(a, b) == Dist(b, a) && Dist(a, b) >= 0
	}
	if err := quick.Check(symmetry, cfg); err != nil {
		t.Error(err)
	}
	triangle := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Point{trim(ax), trim(ay)}, Point{trim(bx), trim(by)}, Point{trim(cx), trim(cy)}
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-9
	}
	if err := quick.Check(triangle, cfg); err != nil {
		t.Error(err)
	}
}

// trim maps arbitrary quick-generated floats into a sane coordinate range.
func trim(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e6)
}

func TestFromPointRoundTrip(t *testing.T) {
	f := func(x, y float64) bool {
		p := Point{trim(x), trim(y)}
		tr := FromPoint(p)
		if !tr.IsPoint() {
			return false
		}
		c := tr.Center()
		return almostEq(c.X, p.X, 1e-9) && almostEq(c.Y, p.Y, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArc(t *testing.T) {
	a := MustArc(Point{0, 0}, Point{2, 2}) // slope +1
	if !a.IsArc() || a.IsPoint() {
		t.Fatalf("expected non-degenerate arc, got %v", a)
	}
	if got := a.ArcLength(); got != 4 {
		t.Errorf("ArcLength = %v, want 4", got)
	}
	b := MustArc(Point{0, 2}, Point{2, 0}) // slope −1
	if !b.IsArc() {
		t.Fatalf("expected arc, got %v", b)
	}
	if !IsArcEndpoints(Point{0, 0}, Point{5, 5}) {
		t.Error("slope +1 segment should be an arc")
	}
	if IsArcEndpoints(Point{0, 0}, Point{1, 2}) {
		t.Error("slope 2 segment must not be an arc")
	}
	if _, err := Arc(Point{0, 0}, Point{1, 2}); err == nil {
		t.Error("Arc on a non-arc segment should return an error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustArc on a non-arc segment should panic")
		}
	}()
	MustArc(Point{0, 0}, Point{1, 2})
}

func TestExpandShrinkInverse(t *testing.T) {
	f := func(x, y, d float64) bool {
		d = math.Abs(trim(d))
		tr := FromPoint(Point{trim(x), trim(y)}).Expand(5)
		back := tr.Expand(d).Shrink(d)
		return almostEq(back.U0, tr.U0, 1e-9) && almostEq(back.U1, tr.U1, 1e-9) &&
			almostEq(back.W0, tr.W0, 1e-9) && almostEq(back.W1, tr.W1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestExpandIsManhattanBall verifies, by sampling, that Expand(d) contains
// exactly the points within Manhattan distance d of the original region.
func TestExpandIsManhattanBall(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for iter := 0; iter < 200; iter++ {
		base := randomTRR(rng)
		d := rng.Float64() * 50
		exp := base.Expand(d)
		for s := 0; s < 20; s++ {
			p := Point{rng.Float64()*400 - 200, rng.Float64()*400 - 200}
			in := exp.Contains(p, 1e-9)
			distToBase := base.DistToPoint(p)
			if in && distToBase > d+1e-9 {
				t.Fatalf("point %v inside Expand(%v) but dist %v > %v", p, d, distToBase, d)
			}
			if !in && distToBase < d-1e-9 {
				t.Fatalf("point %v outside Expand(%v) but dist %v < %v", p, d, distToBase, d)
			}
		}
	}
}

func randomTRR(rng *rand.Rand) TRR {
	p := Point{rng.Float64()*200 - 100, rng.Float64()*200 - 100}
	tr := FromPoint(p)
	switch rng.IntN(3) {
	case 0: // point
		return tr
	case 1: // arc
		l := rng.Float64() * 40
		if rng.IntN(2) == 0 {
			tr.U1 += 2 * l
		} else {
			tr.W1 += 2 * l
		}
		return tr
	default: // fat TRR
		return tr.Expand(rng.Float64() * 30)
	}
}

// TestDistVsSampling cross-checks the analytic TRR distance against a dense
// boundary sampling of both regions.
func TestDistVsSampling(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	for iter := 0; iter < 100; iter++ {
		a, b := randomTRR(rng), randomTRR(rng)
		want := a.Dist(b)
		best := math.Inf(1)
		for i := 0; i <= 40; i++ {
			for j := 0; j <= 40; j++ {
				pa := lerpTRR(a, float64(i)/40, float64(j)/40)
				best = math.Min(best, b.DistToPoint(pa))
			}
		}
		// Sampling can only over-estimate the true minimum distance.
		if best < want-1e-9 {
			t.Fatalf("sampled distance %v below analytic %v for %v vs %v", best, want, a, b)
		}
		if want > 0 && best > want*1.2+1e-6 {
			t.Fatalf("sampled distance %v far above analytic %v for %v vs %v", best, want, a, b)
		}
	}
}

func lerpTRR(t TRR, fu, fw float64) Point {
	u := t.U0 + fu*(t.U1-t.U0)
	w := t.W0 + fw*(t.W1-t.W0)
	return fromRotated(u, w)
}

func TestIntersect(t *testing.T) {
	a := FromPoint(Point{0, 0}).Expand(10)
	b := FromPoint(Point{6, 0}).Expand(10)
	got, ok := a.Intersect(b)
	if !ok {
		t.Fatal("expected overlap")
	}
	if !got.Contains(Point{3, 0}, 1e-9) {
		t.Errorf("intersection %v should contain (3,0)", got)
	}
	c := FromPoint(Point{100, 100})
	if _, ok := a.Intersect(c); ok {
		t.Error("disjoint regions must not intersect")
	}
}

// TestMergeIntersectionIsArc reproduces the DME invariant: expanding two
// regions by radii that exactly sum to their distance yields a Manhattan arc
// (possibly a point), never a fat region.
func TestMergeIntersectionIsArc(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for iter := 0; iter < 300; iter++ {
		a := FromPoint(Point{rng.Float64() * 100, rng.Float64() * 100})
		b := FromPoint(Point{rng.Float64() * 100, rng.Float64() * 100})
		d := a.Dist(b)
		la := rng.Float64() * d
		got, ok := MergeRegion(a, b, la, d-la)
		if !ok {
			t.Fatalf("merge intersection empty for %v %v", a, b)
		}
		// One rotated axis must be (numerically) degenerate.
		thin := math.Min(got.U1-got.U0, got.W1-got.W0)
		if thin > 1e-9 {
			t.Fatalf("merge intersection is fat (%v) for %v %v la=%v", got, a, b, la)
		}
	}
}

func TestNearest(t *testing.T) {
	tr := MustArc(Point{0, 0}, Point{4, 4})
	cases := []struct {
		p    Point
		want float64 // expected distance
	}{
		{Point{2, 2}, 0},
		{Point{-1, -1}, 2},
		{Point{5, 5}, 2},
		{Point{0, 4}, 4}, // off the arc sideways
	}
	for _, c := range cases {
		n := tr.Nearest(c.p)
		if !tr.Contains(n, 1e-9) {
			t.Errorf("Nearest(%v) = %v not on TRR", c.p, n)
		}
		if got := Dist(n, c.p); !almostEq(got, c.want, 1e-9) {
			t.Errorf("dist(Nearest(%v)) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNearestIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for iter := 0; iter < 200; iter++ {
		tr := randomTRR(rng)
		p := Point{rng.Float64()*400 - 200, rng.Float64()*400 - 200}
		n := tr.Nearest(p)
		if !tr.Contains(n, 1e-9) {
			t.Fatalf("Nearest returned off-region point %v for %v", n, tr)
		}
		want := tr.DistToPoint(p)
		if got := Dist(n, p); !almostEq(got, want, 1e-9) {
			t.Fatalf("Nearest dist %v != analytic %v", got, want)
		}
	}
}

func TestNearestToTRR(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	for iter := 0; iter < 200; iter++ {
		a, b := randomTRR(rng), randomTRR(rng)
		p := a.NearestToTRR(b)
		if !a.Contains(p, 1e-9) {
			t.Fatalf("NearestToTRR returned point off a: %v vs %v", p, a)
		}
		if got, want := b.DistToPoint(p), a.Dist(b); !almostEq(got, want, 1e-9) {
			t.Fatalf("NearestToTRR dist %v, want %v (a=%v b=%v)", got, want, a, b)
		}
	}
}

func TestUnionContains(t *testing.T) {
	a := FromPoint(Point{0, 0})
	b := FromPoint(Point{10, 0})
	u := a.Union(b)
	for _, p := range []Point{{0, 0}, {10, 0}, {5, 0}} {
		if !u.Contains(p, 1e-9) {
			t.Errorf("union should contain %v", p)
		}
	}
}

func TestCenterInside(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 100; i++ {
		tr := randomTRR(rng)
		if !tr.Contains(tr.Center(), 1e-9) {
			t.Fatalf("center %v outside %v", tr.Center(), tr)
		}
	}
}

func TestRect(t *testing.T) {
	r := Rect{0, 0, 100, 60}
	if c := r.Center(); c != (Point{50, 30}) {
		t.Errorf("Center = %v", c)
	}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{100, 60}) || r.Contains(Point{101, 0}) {
		t.Error("Contains is wrong on boundaries")
	}
	l, rr := r.SplitX()
	if l.W() != 50 || rr.W() != 50 || l.H() != 60 {
		t.Errorf("SplitX: %v %v", l, rr)
	}
	top, bot := r.SplitY()
	if top.H() != 30 || bot.H() != 30 {
		t.Errorf("SplitY: %v %v", top, bot)
	}
}

func TestBoundingRect(t *testing.T) {
	pts := []Point{{3, 4}, {-1, 7}, {5, -2}}
	r := BoundingRect(pts)
	want := Rect{-1, -2, 5, 7}
	if r != want {
		t.Errorf("BoundingRect = %v, want %v", r, want)
	}
	if BoundingRect(nil) != (Rect{}) {
		t.Error("empty BoundingRect should be zero")
	}
}

func TestCornersOnRegion(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	for i := 0; i < 100; i++ {
		tr := randomTRR(rng)
		for _, c := range tr.Corners() {
			if !tr.Contains(c, 1e-9) {
				t.Fatalf("corner %v outside %v", c, tr)
			}
		}
	}
}

func TestShrinkCanEmpty(t *testing.T) {
	tr := FromPoint(Point{0, 0}).Expand(3)
	if !tr.Shrink(2).Valid() {
		t.Error("shrink within radius must stay valid")
	}
	if tr.Shrink(4).Valid() {
		t.Error("over-shrinking must invalidate")
	}
}

func TestArcLengthOfPoint(t *testing.T) {
	if FromPoint(Point{3, 7}).ArcLength() != 0 {
		t.Error("point arc length must be zero")
	}
}

func TestStringRenderings(t *testing.T) {
	p := Pt(1, 2)
	if p.String() == "" {
		t.Error("Point.String empty")
	}
	if FromPoint(p).String() == "" || FromPoint(p).Expand(2).String() == "" {
		t.Error("TRR.String empty")
	}
}

func TestAdd(t *testing.T) {
	if got := Pt(1, 2).Add(3, -1); got != Pt(4, 1) {
		t.Errorf("Add = %v", got)
	}
}

// MustArc is Arc for compile-time-known endpoints; it panics when the
// segment is not a Manhattan arc.
func MustArc(a, b Point) TRR {
	t, err := Arc(a, b)
	if err != nil {
		panic(err)
	}
	return t
}

// IsArcEndpoints reports whether the segment a–b has slope +1 or −1 (or is a
// single point), i.e. whether it is a valid merging sector.
func IsArcEndpoints(a, b Point) bool {
	return a.X+a.Y == b.X+b.Y || a.Y-a.X == b.Y-b.X
}

// Shrink is the inverse of Expand; the result may be invalid (empty) if the
// TRR is thinner than 2d in either rotated axis.
func (t TRR) Shrink(d float64) TRR {
	return TRR{t.U0 + d, t.U1 - d, t.W0 + d, t.W1 - d}
}

// NearestToTRR returns a point of t at minimum Manhattan distance from o.
func (t TRR) NearestToTRR(o TRR) Point {
	u := clamp(mid(o.U0, o.U1, t.U0, t.U1), t.U0, t.U1)
	w := clamp(mid(o.W0, o.W1, t.W0, t.W1), t.W0, t.W1)
	return fromRotated(u, w)
}

// mid picks a coordinate of [a0,a1] nearest to [b0,b1]: if the intervals
// overlap it returns the midpoint of the overlap, otherwise the facing end.
func mid(b0, b1, a0, a1 float64) float64 {
	lo, hi := math.Max(a0, b0), math.Min(a1, b1)
	if lo <= hi {
		return (lo + hi) / 2
	}
	if a1 < b0 {
		return a1
	}
	return a0
}

// ArcLength returns the Manhattan length spanned by an arc-shaped TRR: the
// Manhattan distance between its two extreme corners. For a full (fat) TRR
// it returns the semi-perimeter equivalent max extent.
func (t TRR) ArcLength() float64 {
	return math.Max(t.U1-t.U0, t.W1-t.W0)
}
