// Package ctrl models the gate controller and the routing of the enable
// signals. The paper's §2 places one centralized controller at the chip
// center and routes every enable as a dedicated (star) net from the
// controller to its gate; §6 sketches the distributed variant, splitting
// the chip into k equal partitions with one controller each, which shrinks
// the star wirelength by ≈ √k.
package ctrl

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// Controller is a set of gate controllers covering the die: every gate is
// served by the controller of the partition containing it.
type Controller struct {
	Die        geom.Rect
	Partitions []geom.Rect
	Centers    []geom.Point
}

// Centralized returns the single-controller configuration of §2: one
// controller at the chip center.
func Centralized(die geom.Rect) *Controller {
	return &Controller{Die: die, Partitions: []geom.Rect{die}, Centers: []geom.Point{die.Center()}}
}

// Distributed splits the die into k equal partitions (k must be a power of
// two) by alternately halving the longer side, one controller at each
// partition center — the configuration of Figure 6(b).
func Distributed(die geom.Rect, k int) (*Controller, error) {
	if k < 1 || k&(k-1) != 0 {
		return nil, fmt.Errorf("ctrl: partition count %d is not a power of two", k)
	}
	parts := []geom.Rect{die}
	for len(parts) < k {
		var next []geom.Rect
		for _, r := range parts {
			var a, b geom.Rect
			if r.W() >= r.H() {
				a, b = r.SplitX()
			} else {
				a, b = r.SplitY()
			}
			next = append(next, a, b)
		}
		parts = next
	}
	c := &Controller{Die: die, Partitions: parts}
	for _, r := range parts {
		c.Centers = append(c.Centers, r.Center())
	}
	return c, nil
}

// K returns the number of controllers.
func (c *Controller) K() int { return len(c.Centers) }

// Assign returns the index of the controller serving a gate at p: the
// partition containing p, falling back to the nearest center for points
// outside the die (snaked wires can stray slightly).
func (c *Controller) Assign(p geom.Point) int {
	for i, r := range c.Partitions {
		if r.Contains(p) {
			return i
		}
	}
	best, bestD := 0, math.Inf(1)
	for i, ctr := range c.Centers {
		if d := geom.Dist(p, ctr); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// StarDist returns the enable-net length for a gate at p: the Manhattan
// distance to its serving controller.
func (c *Controller) StarDist(p geom.Point) float64 {
	return geom.Dist(p, c.Centers[c.Assign(p)])
}

// Validate checks that the partitions tile the die.
func (c *Controller) Validate() error {
	if len(c.Partitions) == 0 || len(c.Partitions) != len(c.Centers) {
		return errors.New("ctrl: partitions and centers must be non-empty and matched")
	}
	area := 0.0
	for _, r := range c.Partitions {
		area += r.W() * r.H()
	}
	dieArea := c.Die.W() * c.Die.H()
	if math.Abs(area-dieArea) > 1e-6*dieArea {
		return fmt.Errorf("ctrl: partitions cover %v of die area %v", area, dieArea)
	}
	return nil
}

// AnalyticStarLength is the closed-form §6 model of total star wirelength:
// for a square chip of side D with G uniformly spread gates split across k
// partitions, the average enable net is D/(4√k), so the total length is
// G·D/(4·√k).
func AnalyticStarLength(side float64, gates, k int) float64 {
	return float64(gates) * side / (4 * math.Sqrt(float64(k)))
}
