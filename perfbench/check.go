package main

import (
	"fmt"

	"dcasdeque/serve"
)

// The correctness checks every run applies to the program's outputs.
// Each returns nil when the output is right; a non-nil error fails the
// run and counts in failed.

// fibTasks is the size of the fork-join fib(n) tree: 2·fib(n+1)−1.
func fibTasks(n int) uint64 {
	a, b := uint64(0), uint64(1)
	for i := 0; i < n+1; i++ {
		a, b = b, a+b
	}
	return 2*a - 1
}

func checkFibTree(n int, ran uint64) error {
	if want := fibTasks(n); ran != want {
		return fmt.Errorf("fib(%d) tree ran %d tasks, want %d", n, ran, want)
	}
	return nil
}

func checkEcho(payload string, r serve.JobResponse) error {
	if r.Kind != "echo" || r.Data != payload || r.Result != uint64(len(payload)) {
		return fmt.Errorf("echo of %q came back as kind %q data %q result %d", payload, r.Kind, r.Data, r.Result)
	}
	return nil
}

// spinResult is the spin job's xorshift, computed locally.
func spinResult(n int) uint64 {
	x := uint64(n) | 1
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

func checkSpin(n int, want uint64, r serve.JobResponse) error {
	if r.Kind != "spin" || r.Result != want {
		return fmt.Errorf("spin(%d) returned kind %q result %d, want %d", n, r.Kind, r.Result, want)
	}
	return nil
}

// multiset is an order-independent fingerprint of a multiset of
// values: their count and the sums of two independent 64-bit mixes.
// Two multisets with equal fingerprints are equal except with
// probability about 2^-128, so comparing the pushed values' fingerprint
// with the popped-or-drained values' shows every value was taken out
// exactly once without storing them.
type multiset struct {
	n, a, b uint64
}

func (m *multiset) add(v uint64) {
	m.n++
	m.a += mix64(v)
	m.b += mix64(v ^ 0x6a09e667f3bcc909)
}

func (m *multiset) merge(o multiset) {
	m.n += o.n
	m.a += o.a
	m.b += o.b
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func checkExactlyOnce(pushed, taken multiset) error {
	if pushed != taken {
		return fmt.Errorf("deque values not taken out exactly once: pushed %d values, popped or drained %d (fingerprints %x/%x vs %x/%x)",
			pushed.n, taken.n, pushed.a, pushed.b, taken.a, taken.b)
	}
	return nil
}

// checkServeConserved checks the admission conservation law after
// Shutdown and that the server's totals agree with what the client saw.
func checkServeConserved(st serve.Stats, received, completed uint64) error {
	if ok, tenant := st.Conserved(); !ok {
		return fmt.Errorf("serve counters do not conserve (tenant %q): %+v", tenant, st.Total)
	}
	if st.Total.Received != received || st.Total.Completed != completed {
		return fmt.Errorf("serve counted %d received / %d completed, client saw %d / %d",
			st.Total.Received, st.Total.Completed, received, completed)
	}
	return nil
}
