package dag

// ReadyLen is the number of candidates the next TryAssign will scan.
func (c *Coordinator) ReadyLen() int { return len(c.ready) }

// IndexCounts reports how often LocalityReady picks replayed the log
// and filled a row, and how often the log was trimmed; all zero under
// the other policies, which keep no index, and while it is off.
func (c *Coordinator) IndexCounts() (replays, fills, trims int) {
	return c.index.replays, c.index.fills, c.index.trims
}
