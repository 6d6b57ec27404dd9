package main

import (
	"testing"

	"hetsched/internal/service"
)

// TestShape: every kernel of service.Kernels has a default shape, and
// shape fills in only the dimensions left 0; a kernel without one runs
// only with both given.
func TestShape(t *testing.T) {
	for _, k := range service.Kernels {
		def, ok := shapes[k.Name]
		if !ok || def.n <= 0 || def.p <= 0 {
			t.Errorf("kernel %s has no default shape (%+v)", k.Name, def)
			continue
		}
		for _, tc := range []struct{ n, p, wantN, wantP int }{
			{0, 0, def.n, def.p},
			{7, 0, 7, def.p},
			{0, 3, def.n, 3},
			{7, 3, 7, 3},
		} {
			n, p, err := shape(k.Name, tc.n, tc.p)
			if err != nil || n != tc.wantN || p != tc.wantP {
				t.Errorf("shape(%s, %d, %d) = %d, %d, %v; want %d, %d", k.Name, tc.n, tc.p, n, p, err, tc.wantN, tc.wantP)
			}
		}
	}
	for _, tc := range []struct {
		n, p int
		ok   bool
	}{{0, 0, false}, {7, 0, false}, {0, 3, false}, {7, 3, true}} {
		n, p, err := shape("unshaped", tc.n, tc.p)
		if (err == nil) != tc.ok || (tc.ok && (n != tc.n || p != tc.p)) {
			t.Errorf("shape(unshaped, %d, %d) = %d, %d, %v; want ok %v", tc.n, tc.p, n, p, err, tc.ok)
		}
	}
}
