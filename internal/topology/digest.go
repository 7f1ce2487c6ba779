package topology

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
)

// Digest returns a hex SHA-256 over a canonical serialization of every
// routed quantity: source location, tree shape (node and child IDs), sink
// assignment, embedded locations, edge lengths, electrical state, activity
// values, and drivers. Two trees have equal digests exactly when they are
// bit-identical in all those fields, so the digest is a compact stand-in
// for the golden tree comparison in run manifests, the serve result cache
// and cross-machine reproducibility checks.
func (t *Tree) Digest() string {
	h := sha256.New()
	t.DigestInto(h)
	return hex.EncodeToString(h.Sum(nil))
}

// DigestInto streams the canonical serialization behind Digest into w,
// letting callers fold the tree identity into a larger hash (for example a
// key combining request and result) without re-encoding.
func (t *Tree) DigestInto(w io.Writer) {
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		w.Write(buf[:])
	}
	writeI := func(v int) { writeU64(uint64(int64(v))) }
	writeF := func(f float64) { writeU64(math.Float64bits(f)) }
	writeF(t.Source.X)
	writeF(t.Source.Y)
	t.Root.PreOrder(func(n *Node) {
		writeI(n.ID)
		// Child IDs pin the shape: pre-order alone cannot distinguish all
		// left/right arrangements.
		for _, c := range []*Node{n.Left, n.Right} {
			if c == nil {
				writeI(-1)
			} else {
				writeI(c.ID)
			}
		}
		writeI(n.SinkIndex)
		writeF(n.Loc.X)
		writeF(n.Loc.Y)
		writeF(n.EdgeLen)
		writeF(n.Delay)
		writeF(n.Cap)
		writeF(n.AttachCap)
		writeF(n.P)
		writeF(n.Ptr)
		switch {
		case n.Driver == nil:
			writeI(0)
		case n.Gated():
			writeI(1)
		default:
			writeI(2)
		}
		if n.Driver != nil {
			writeF(n.Driver.Cin)
			writeF(n.Driver.Rout)
			writeF(n.Driver.Dint)
			writeF(n.Driver.Area)
			io.WriteString(w, n.Driver.Name)
		}
	})
}
