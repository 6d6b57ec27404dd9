package dag

// ReadyLen is the number of candidates the next TryAssign will scan.
func (c *Coordinator) ReadyLen() int { return len(c.ready) }
