package core

// prefetch asks the CPU to bring addr's cache line in (PREFETCHT0). It
// is a hint: it never faults, and nothing waits on it.
//
//go:noescape
func prefetch(addr *Task)
