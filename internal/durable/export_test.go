package durable

// Gen returns the generation currently open for appends.
func (l *Log) Gen() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen
}
