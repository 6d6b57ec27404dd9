//go:build unix

package federation

import (
	"net"
	"syscall"
)

// idleProbe is the idle check of one connection where a descriptor can
// be read without blocking: one read(2), no wait. read and silent are
// its callback and result, kept here so that a check allocates nothing.
type idleProbe struct {
	rc     syscall.RawConn
	read   func(fd uintptr) bool
	silent bool
}

func (p *idleProbe) init(raw net.Conn) {
	if sc, ok := raw.(syscall.Conn); ok {
		p.rc, _ = sc.SyscallConn()
	}
	p.read = func(fd uintptr) bool {
		var b [1]byte
		n, err := syscall.Read(int(fd), b[:])
		p.silent = n < 0 && (err == syscall.EAGAIN || err == syscall.EWOULDBLOCK)
		return true // never wait for readiness
	}
}

// quiet reports whether the socket is open with nothing to read. A
// connection without a descriptor cannot be checked and is not reused.
func (p *idleProbe) quiet() bool {
	if p.rc == nil {
		return false
	}
	p.silent = false
	return p.rc.Read(p.read) == nil && p.silent
}
