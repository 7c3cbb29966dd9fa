package share

import "sync"

// NewObserved is New with the test-only change broadcast switched on, so the
// external tests can wait on WaitParked's event.
func NewObserved(cfg Config) (*Coordinator, error) {
	c, err := New(cfg)
	if err == nil {
		c.changed = sync.NewCond(&c.mu)
	}
	return c, err
}

// WaitParked exports waitParked for the external tests; c must come from
// NewObserved.
func WaitParked(c *Coordinator, tickets ...*Ticket) { waitParked(c, tickets...) }
