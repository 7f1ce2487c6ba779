// Package geom implements the Manhattan-metric geometry that underlies
// deferred-merge-embedding (DME) clock routing: points, Manhattan arcs
// (segments of slope ±1, the "merging sectors" of the paper) and tilted
// rectangular regions (TRRs).
//
// All region arithmetic is done in 45°-rotated coordinates
//
//	u = x + y,  w = y − x
//
// where the Manhattan (L1) metric becomes the Chebyshev (L∞) metric, a
// Manhattan disc becomes an axis-aligned square, a Manhattan arc becomes an
// axis-parallel segment, and a TRR becomes an axis-aligned rectangle. In
// that frame Minkowski expansion, intersection and distance are all simple
// interval operations.
package geom

import (
	"fmt"
	"math"
)

// Point is a location on the chip in original (x, y) coordinates, in λ.
type Point struct {
	X, Y float64
}

// Dist returns the Manhattan (L1) distance between p and q.
func Dist(p, q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// Add returns the translation of p by (dx, dy).
func (p Point) Add(dx, dy float64) Point { return Point{p.X + dx, p.Y + dy} }

func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// TRR is a tilted rectangular region: a rectangle whose sides have slope ±1
// in (x, y) space, represented as an axis-aligned rectangle
// [U0, U1] × [W0, W1] in rotated (u, w) space. Degenerate TRRs represent
// Manhattan arcs (one zero-length side) and points (both sides zero).
//
// The zero value is the TRR containing only the origin.
type TRR struct {
	U0, U1 float64 // u = x + y interval, U0 ≤ U1
	W0, W1 float64 // w = y − x interval, W0 ≤ W1
}

// FromPoint returns the degenerate TRR holding exactly p.
func FromPoint(p Point) TRR {
	u, w := p.X+p.Y, p.Y-p.X
	return TRR{u, u, w, w}
}

// Arc returns the Manhattan arc (slope ±1 segment) between points a and b.
// It returns an error when the segment is not a Manhattan arc (including
// NaN coordinates, for which no slope is defined).
func Arc(a, b Point) (TRR, error) {
	t := FromPoint(a).Union(FromPoint(b))
	if !t.IsArc() {
		return TRR{}, fmt.Errorf("geom: %v-%v is not a Manhattan arc", a, b)
	}
	return t, nil
}

// Valid reports whether the TRR is non-empty (intervals are ordered).
func (t TRR) Valid() bool { return t.U0 <= t.U1 && t.W0 <= t.W1 }

// IsArc reports whether the TRR is degenerate in at least one rotated axis,
// i.e. it is a Manhattan arc or a point.
func (t TRR) IsArc() bool { return t.U0 == t.U1 || t.W0 == t.W1 }

// IsPoint reports whether the TRR contains a single point.
func (t TRR) IsPoint() bool { return t.U0 == t.U1 && t.W0 == t.W1 }

// Expand returns the Minkowski sum of t with a Manhattan disc of radius d:
// every point within Manhattan distance d of t. d must be non-negative.
func (t TRR) Expand(d float64) TRR {
	return TRR{t.U0 - d, t.U1 + d, t.W0 - d, t.W1 + d}
}

// Union returns the smallest TRR containing both t and o.
func (t TRR) Union(o TRR) TRR {
	return TRR{
		math.Min(t.U0, o.U0), math.Max(t.U1, o.U1),
		math.Min(t.W0, o.W0), math.Max(t.W1, o.W1),
	}
}

// Intersect returns the intersection of t and o and whether it is non-empty.
func (t TRR) Intersect(o TRR) (TRR, bool) {
	r := TRR{
		math.Max(t.U0, o.U0), math.Min(t.U1, o.U1),
		math.Max(t.W0, o.W0), math.Min(t.W1, o.W1),
	}
	return r, r.Valid()
}

// MergeRegion returns the set of points at Manhattan distance ≤ la from a
// and ≤ lb from b — the merging sector of a DME merge with edge lengths la
// and lb. When la+lb equals Dist(a, b) the result is a Manhattan arc, but
// floating-point rounding can leave a gap of a few ulps; such gaps are
// collapsed to the midpoint. It reports false only when the regions are
// genuinely (non-numerically) disjoint.
func MergeRegion(a, b TRR, la, lb float64) (TRR, bool) {
	r, ok := a.Expand(la).Intersect(b.Expand(lb))
	if ok {
		return r, true
	}
	// Tolerance scales with the magnitudes involved.
	eps := 1e-9 * (1 + la + lb +
		math.Abs(r.U0) + math.Abs(r.U1) + math.Abs(r.W0) + math.Abs(r.W1))
	if r.U0 > r.U1 {
		if r.U0-r.U1 > eps {
			return r, false
		}
		m := (r.U0 + r.U1) / 2
		r.U0, r.U1 = m, m
	}
	if r.W0 > r.W1 {
		if r.W0-r.W1 > eps {
			return r, false
		}
		m := (r.W0 + r.W1) / 2
		r.W0, r.W1 = m, m
	}
	return r, true
}

// Dist returns the minimum Manhattan distance between any point of t and any
// point of o; zero if they intersect. In rotated space this is the Chebyshev
// distance between two axis-aligned rectangles.
func (t TRR) Dist(o TRR) float64 {
	du := intervalGap(t.U0, t.U1, o.U0, o.U1)
	dw := intervalGap(t.W0, t.W1, o.W0, o.W1)
	return math.Max(du, dw)
}

// DistToPoint returns the minimum Manhattan distance from p to t.
func (t TRR) DistToPoint(p Point) float64 {
	return t.Dist(FromPoint(p))
}

// intervalGap returns the gap between intervals [a0,a1] and [b0,b1], or 0 if
// they overlap.
func intervalGap(a0, a1, b0, b1 float64) float64 {
	if g := b0 - a1; g > 0 {
		return g
	}
	if g := a0 - b1; g > 0 {
		return g
	}
	return 0
}

// Contains reports whether p lies inside t (inclusive, with tolerance eps to
// absorb floating-point noise).
func (t TRR) Contains(p Point, eps float64) bool {
	u, w := p.X+p.Y, p.Y-p.X
	return u >= t.U0-eps && u <= t.U1+eps && w >= t.W0-eps && w <= t.W1+eps
}

// Nearest returns the point of t closest (in Manhattan distance) to p.
func (t TRR) Nearest(p Point) Point {
	u := clamp(p.X+p.Y, t.U0, t.U1)
	w := clamp(p.Y-p.X, t.W0, t.W1)
	return fromRotated(u, w)
}

// Center returns the midpoint of t — the paper's mid(ms(v)), used to
// estimate the controller-star edge length during bottom-up merging.
func (t TRR) Center() Point {
	return fromRotated((t.U0+t.U1)/2, (t.W0+t.W1)/2)
}

// CenterRotated returns the midpoint of t directly in rotated (u, w)
// coordinates — the frame where TRR distance is the Chebyshev metric, and
// therefore the frame spatial indexes over TRRs should bucket in.
func (t TRR) CenterRotated() (u, w float64) {
	return (t.U0 + t.U1) / 2, (t.W0 + t.W1) / 2
}

// RadiusChebyshev returns the L∞ radius of t around its midpoint in the
// rotated frame: half its larger rotated extent. For any TRRs s, t
//
//	s.Dist(t) ≥ L∞(centers) − s.RadiusChebyshev() − t.RadiusChebyshev()
//
// which is the containment bound expanding-ring searches prune with.
func (t TRR) RadiusChebyshev() float64 {
	return math.Max(t.U1-t.U0, t.W1-t.W0) / 2
}

// Corners returns the four corners of the TRR in (x, y) space. For arcs two
// pairs coincide; for points all four do.
func (t TRR) Corners() [4]Point {
	return [4]Point{
		fromRotated(t.U0, t.W0),
		fromRotated(t.U0, t.W1),
		fromRotated(t.U1, t.W0),
		fromRotated(t.U1, t.W1),
	}
}

func (t TRR) String() string {
	if t.IsPoint() {
		return fmt.Sprintf("TRR{%v}", t.Center())
	}
	c := t.Corners()
	return fmt.Sprintf("TRR{u[%.3f,%.3f] w[%.3f,%.3f] corners %v %v %v %v}",
		t.U0, t.U1, t.W0, t.W1, c[0], c[1], c[2], c[3])
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func fromRotated(u, w float64) Point {
	return Point{X: (u - w) / 2, Y: (u + w) / 2}
}

// Rect is an axis-aligned rectangle in original (x, y) space, used for die
// outlines and controller partitions.
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// Center returns the geometric center of r.
func (r Rect) Center() Point { return Point{(r.X0 + r.X1) / 2, (r.Y0 + r.Y1) / 2} }

// Contains reports whether p lies in r (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X0 && p.X <= r.X1 && p.Y >= r.Y0 && p.Y <= r.Y1
}

// W returns the width of r, H its height.
func (r Rect) W() float64 { return r.X1 - r.X0 }

// H returns the height of r.
func (r Rect) H() float64 { return r.Y1 - r.Y0 }

// SplitX halves r vertically; SplitY halves it horizontally.
func (r Rect) SplitX() (Rect, Rect) {
	m := (r.X0 + r.X1) / 2
	return Rect{r.X0, r.Y0, m, r.Y1}, Rect{m, r.Y0, r.X1, r.Y1}
}

// SplitY halves r horizontally.
func (r Rect) SplitY() (Rect, Rect) {
	m := (r.Y0 + r.Y1) / 2
	return Rect{r.X0, r.Y0, r.X1, m}, Rect{r.X0, m, r.X1, r.Y1}
}

// BoundingRect returns the smallest axis-aligned rectangle covering pts.
// It returns the zero Rect when pts is empty.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{pts[0].X, pts[0].Y, pts[0].X, pts[0].Y}
	for _, p := range pts[1:] {
		r.X0 = math.Min(r.X0, p.X)
		r.Y0 = math.Min(r.Y0, p.Y)
		r.X1 = math.Max(r.X1, p.X)
		r.Y1 = math.Max(r.Y1, p.Y)
	}
	return r
}

// Pt is a convenience constructor for Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }
