package outer

import (
	"bytes"
	"testing"

	"hetsched/internal/rng"
)

// TestRestoreRejectsUnheldBlock: a state in which a present worker
// lists an index whose block it does not hold is refused, in a Dynamic
// run and in a TwoPhases run that has not switched. The dynamic step
// counts a fresh row's tasks against the worker's b set, so such a
// state would stop its scans early. The untouched states round-trip.
func TestRestoreRejectsUnheldBlock(t *testing.T) {
	const n, p, w = 70, 3, 1
	procWords, ownWords := (n*n+63)/64, (n+63)/64
	for _, tc := range []struct {
		name  string
		build func() (snapScheduler, *Dynamic)
	}{
		{"dynamic", func() (snapScheduler, *Dynamic) {
			s := NewDynamic(n, p, rng.New(5))
			return s, s
		}},
		{"2phases", func() (snapScheduler, *Dynamic) {
			s := NewTwoPhases(n, p, 0, rng.New(5))
			return s, s.dyn
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, dyn := tc.build()
			for k := 0; k < 5*p; k++ {
				s.Next(k % p)
			}
			state := s.AppendState(nil)
			fresh, _ := tc.build()
			if err := fresh.RestoreState(state); err != nil {
				t.Fatalf("untouched state refused: %v", err)
			}
			if !bytes.Equal(fresh.AppendState(nil), state) {
				t.Fatal("untouched state does not round-trip")
			}
			st := &dyn.dyn[w]
			for _, c := range []struct {
				set int // 0: the a set, 1: the b set
				idx int32
			}{{0, st.iKnown[2]}, {1, st.jKnown[3]}} {
				bad := bytes.Clone(state)
				off := 16 + 8*procWords + (2*w+c.set)*8*ownWords + int(c.idx)/8
				bad[off] &^= 1 << (c.idx % 8)
				fresh, _ := tc.build()
				if err := fresh.RestoreState(bad); err == nil {
					t.Errorf("set %d without listed index %d restored", c.set, c.idx)
				}
			}
		})
	}
}
