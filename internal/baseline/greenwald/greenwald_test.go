package greenwald

import (
	"math/rand/v2"
	"testing"

	"dcasdeque/internal/dcas"
	"dcasdeque/internal/spec"
	"dcasdeque/internal/verify/stress"
)

func TestPackUnpack(t *testing.T) {
	for _, c := range []struct{ l, r, count uint64 }{
		{0, 0, 0}, {1, 2, 3}, {idxMask, idxMask, 1<<16 - 1},
	} {
		l, r, count := unpack(pack(c.l, c.r, c.count))
		if l != c.l || r != c.r || count != c.count {
			t.Fatalf("round trip (%d,%d,%d) -> (%d,%d,%d)", c.l, c.r, c.count, l, r, count)
		}
	}
}

func TestRandomDifferential(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		rng := rand.New(rand.NewPCG(uint64(n), 11))
		d := New(n, nil)
		ref := spec.New(n)
		next := uint64(1)
		for step := 0; step < 5000; step++ {
			switch rng.IntN(4) {
			case 0:
				if got, want := d.PushLeft(next), ref.PushLeft(next); got != want {
					t.Fatalf("n=%d step %d: pushLeft %v want %v", n, step, got, want)
				}
				next++
			case 1:
				if got, want := d.PushRight(next), ref.PushRight(next); got != want {
					t.Fatalf("n=%d step %d: pushRight %v want %v", n, step, got, want)
				}
				next++
			case 2:
				gv, gr := d.PopLeft()
				wv, wr := ref.PopLeft()
				if gr != wr || (gr == spec.Okay && gv != wv) {
					t.Fatalf("n=%d step %d: popLeft (%d,%v) want (%d,%v)", n, step, gv, gr, wv, wr)
				}
			case 3:
				gv, gr := d.PopRight()
				wv, wr := ref.PopRight()
				if gr != wr || (gr == spec.Okay && gv != wv) {
					t.Fatalf("n=%d step %d: popRight (%d,%v) want (%d,%v)", n, step, gv, gr, wv, wr)
				}
			}
			items, _ := d.Items()
			want := ref.Items()
			if len(items) != len(want) {
				t.Fatalf("n=%d step %d: items %v want %v", n, step, items, want)
			}
			for i := range items {
				if items[i] != want[i] {
					t.Fatalf("n=%d step %d: items %v want %v", n, step, items, want)
				}
			}
		}
	}
}

func TestLinearizableUnderStress(t *testing.T) {
	for name, prov := range map[string]dcas.Provider{
		"GlobalLock": new(dcas.GlobalLock),
	} {
		t.Run(name, func(t *testing.T) {
			d := New(3, prov)
			if _, err := stress.Run(d, stress.Config{
				Threads: 3, OpsPerThread: 4, Windows: 120, Capacity: 3, Items: d.Items, Seed: 13,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCapacityBounds(t *testing.T) {
	for _, bad := range []int{0, MaxCap + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", bad)
				}
			}()
			New(bad, nil)
		}()
	}
}

func TestPushNullPanics(t *testing.T) {
	d := New(2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("push of null did not panic")
		}
	}()
	d.PushRight(0)
}
