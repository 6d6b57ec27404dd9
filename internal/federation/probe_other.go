//go:build !unix

package federation

import (
	"net"
	"time"
)

// idleProbe is the idle check of one connection where the only read
// there is blocks: it waits probeWait for a byte or the end of the
// stream, so a reused connection costs that much more than on unix.
type idleProbe struct{ raw net.Conn }

// probeWait is long enough for a close that arrived before the check to
// be seen, and short next to a dial over a real network.
const probeWait = 100 * time.Microsecond

func (p *idleProbe) init(raw net.Conn) { p.raw = raw }

// quiet reports whether the socket is open with nothing to read.
func (p *idleProbe) quiet() bool { return quietWithin(p.raw, probeWait) }
