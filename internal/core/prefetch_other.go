//go:build !amd64

package core

// prefetch is a no-op where no prefetch instruction is wired in.
func prefetch(*Task) {}
