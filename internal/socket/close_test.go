package socket

import (
	"errors"
	"testing"

	"shrimp/internal/hw"
	"shrimp/internal/kernel"
)

// TestSendAfterCloseFails: the existing post-close contract still holds
// with the wakeup machinery in place.
func TestSendAfterCloseFails(t *testing.T) {
	rig(t, ModeDU1,
		func(c *Conn, p *kernel.Process) {
			buf := p.Alloc(64, hw.WordSize)
			if _, err := c.RecvAll(buf, 64); err != nil {
				t.Error(err)
			}
		},
		func(c *Conn, p *kernel.Process) {
			buf := p.Alloc(64, hw.WordSize)
			if _, err := c.Send(buf, 64); err != nil {
				t.Error(err)
			}
			if err := c.Close(); err != nil {
				t.Error(err)
			}
			// Close is a half-close: sending errors, receiving may drain
			// (see TestHalfClose).
			if _, err := c.Send(buf, 64); !errors.Is(err, ErrClosed) {
				t.Errorf("Send after Close = %v, want ErrClosed", err)
			}
		})
}
