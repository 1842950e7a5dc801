package tcp

import "github.com/rdcn-net/tdtcp/internal/packet"

// Ranges exposes the receiver's out-of-order ranges to the package's
// external tests.
func (c *Conn) Ranges() []packet.SeqRange { return c.rcv.Ranges() }
