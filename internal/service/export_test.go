package service

// Fenced reports whether the host is currently fenced (pending or
// committed). Only the migration tests ask.
func (h *Host) Fenced() bool { return h.fence.Load() != fenceNone }
