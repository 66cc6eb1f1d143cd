package telemetry

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"dcasdeque/internal/dcas"
)

// TestShardLayout pins the cache geometry the sink promises: the three
// counter banks of a shard sit in disjoint false-sharing ranges, and
// adjacent shards in the slice do not bring two banks back together.
func TestShardLayout(t *testing.T) {
	var sh shard
	offL := unsafe.Offsetof(sh.left)
	offR := unsafe.Offsetof(sh.right)
	offRef := unsafe.Offsetof(sh.ref)
	if offR-offL < dcas.FalseSharingRange {
		t.Fatalf("left and right banks %d bytes apart, want ≥ %d", offR-offL, dcas.FalseSharingRange)
	}
	if offRef-offR < dcas.FalseSharingRange {
		t.Fatalf("right and ref banks %d bytes apart, want ≥ %d", offRef-offR, dcas.FalseSharingRange)
	}
	// A shard must be a whole number of false-sharing ranges, so bank
	// spacing survives placement in the shard slice.
	if sz := unsafe.Sizeof(sh); sz%dcas.FalseSharingRange != 0 {
		t.Fatalf("shard size %d is not a multiple of %d", sz, dcas.FalseSharingRange)
	}
	s := &Sink{shards: make([]shard, 2), mask: 1}
	a := dcas.CacheLineOf(unsafe.Pointer(&s.shards[0].ref))
	b := dcas.CacheLineOf(unsafe.Pointer(&s.shards[1].left))
	if a == b {
		t.Fatalf("last bank of shard 0 shares cache line %d with first bank of shard 1", a)
	}
}

func TestSinkShards(t *testing.T) {
	for _, c := range []struct{ procs, want int }{
		{1, 1}, {2, 2}, {3, 4}, {8, 8}, {12, 16}, {64, 16},
	} {
		if got := sinkShards(c.procs); got != c.want {
			t.Errorf("sinkShards(%d) = %d, want %d", c.procs, got, c.want)
		}
		if got := sinkShards(c.procs); got&(got-1) != 0 {
			t.Errorf("sinkShards(%d) = %d, not a power of two", c.procs, got)
		}
	}
}

func TestSinkCounters(t *testing.T) {
	s := NewSink()
	s.Op(Left, Pushes, 0)
	s.Op(Left, Pushes, 3)
	s.Op(Right, Pops, 1)
	s.Op(Right, EmptyHits, 0)
	s.Op(Left, FullHits, 2)
	s.Add(Right, PhysicalDeletes, 2)
	s.Add(Right, LogicalDeletes, 1)
	s.RefInc()
	s.RefInc()
	s.RefDec()
	s.RefFree()

	sn := s.Snapshot()
	want := Snapshot{
		Left:  OpCounts{Pushes: 2, FullHits: 1, Retries: 5},
		Right: OpCounts{Pops: 1, EmptyHits: 1, Retries: 1, LogicalDeletes: 1, PhysicalDeletes: 2},
		Ref:   RefCounts{Incs: 2, Decs: 1, Frees: 1},
	}
	if sn != want {
		t.Fatalf("Snapshot = %+v, want %+v", sn, want)
	}
	if got := sn.Left.Ops(); got != 3 {
		t.Fatalf("Left.Ops() = %d, want 3", got)
	}
	if got := sn.End(Right); got != want.Right {
		t.Fatalf("End(Right) = %+v, want %+v", got, want.Right)
	}

	s.Reset()
	if sn := s.Snapshot(); sn != (Snapshot{}) {
		t.Fatalf("Snapshot after Reset = %+v, want zero", sn)
	}
}

// TestSinkConcurrent verifies no recorded operation is lost under
// concurrent recording from many goroutines (the shard function may
// distribute them anywhere, but the sum must be exact).
func TestSinkConcurrent(t *testing.T) {
	s := NewSink()
	const workers = 8
	const per = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			end := End(w % NumEnds)
			for i := 0; i < per; i++ {
				s.Op(end, Pushes, 1)
			}
		}(w)
	}
	wg.Wait()
	sn := s.Snapshot()
	total := sn.Left.Pushes + sn.Right.Pushes
	if total != workers*per {
		t.Fatalf("recorded %d pushes, want %d", total, workers*per)
	}
	if retries := sn.Left.Retries + sn.Right.Retries; retries != workers*per {
		t.Fatalf("recorded %d retries, want %d", retries, workers*per)
	}
	if sn.Left.Pushes != workers/2*per || sn.Right.Pushes != workers/2*per {
		t.Fatalf("per-end split %d/%d, want %d each", sn.Left.Pushes, sn.Right.Pushes, workers/2*per)
	}
}

// TestShardDistribution checks the stack-address shard picker actually
// spreads goroutines across stripes on a multi-shard sink.  (Statistical:
// with 64 goroutines and ≥2 shards, all landing on one stripe would mean
// the hash is degenerate.)  Every goroutine stays alive at a barrier
// until all have picked their shard, so each hashes its own live stack:
// a goroutine that exited early would hand its stack to the next one.
func TestShardDistribution(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single-P schedule builds a 1-shard sink")
	}
	s := NewSink()
	if len(s.shards) < 2 {
		t.Skip("sink has one shard")
	}
	var picked, wg sync.WaitGroup
	release := make(chan struct{})
	hit := make([]int, 64)
	for g := 0; g < 64; g++ {
		picked.Add(1)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sh := s.shard()
			for i := range s.shards {
				if sh == &s.shards[i] {
					hit[g] = i
				}
			}
			picked.Done()
			<-release
		}(g)
	}
	picked.Wait()
	close(release)
	wg.Wait()
	first := hit[0]
	for _, h := range hit {
		if h != first {
			return // at least two stripes used
		}
	}
	t.Fatalf("all 64 goroutines hashed to shard %d of %d", first, len(s.shards))
}

func TestCounterAndEndNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < NumCounters; c++ {
		n := c.String()
		if n == "unknown" || seen[n] {
			t.Fatalf("counter %d has bad or duplicate name %q", c, n)
		}
		seen[n] = true
	}
	if Left.String() != "left" || Right.String() != "right" {
		t.Fatalf("end names = %q, %q", Left.String(), Right.String())
	}
}
