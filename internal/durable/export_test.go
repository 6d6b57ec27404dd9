package durable

// Dir returns the journal directory.
func (l *Log) Dir() string { return l.dir }

// Gen returns the generation currently open for appends.
func (l *Log) Gen() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen
}
