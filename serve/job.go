package serve

import (
	"errors"
	"fmt"
)

// Job is the wire shape of one unit of work.  The built-in kinds cover
// the load shapes the serving experiments need: "fib" is deterministic
// CPU work scaling with N (iterative, so one job is one task), "spin"
// is calibrated busy-work of N PRNG rounds, and "echo" returns Data —
// the I/O-bound extreme.
type Job struct {
	Kind string `json:"kind"`
	N    int    `json:"n,omitempty"`
	Data string `json:"data,omitempty"`
}

// errBadJob rejects malformed jobs before they touch admission.
var errBadJob = errors.New("serve: bad job")

// jobMaxN bounds per-job work so a single request cannot occupy a
// worker unboundedly — the per-request analogue of bounded queues.
const jobMaxN = 10_000_000

// jobMaxData bounds an echo job's Data, which the job holds from
// admission until its response is written: the bytes analogue of
// jobMaxN.
const jobMaxData = 16 << 10

// validate enforces the job contract (known kind, bounded N, bounded
// Data).
func (j Job) validate() error {
	switch j.Kind {
	case "fib", "spin":
		if j.N < 0 || j.N > jobMaxN {
			return fmt.Errorf("%w: n must be in [0, %d]", errBadJob, jobMaxN)
		}
		return nil
	case "echo":
		if len(j.Data) > jobMaxData {
			return fmt.Errorf("%w: data longer than %d bytes", errBadJob, jobMaxData)
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown kind %q", errBadJob, j.Kind)
	}
}

// execute runs the job and returns its numeric result and echoed data.
// Pure CPU, no blocking: a job occupies exactly one scheduler task.
func (j Job) execute() (uint64, string) {
	switch j.Kind {
	case "fib":
		// Iterative, wrapping uint64 Fibonacci: deterministic, so load
		// generators can verify results end to end.
		var a, b uint64 = 0, 1
		for i := 0; i < j.N; i++ {
			a, b = b, a+b
		}
		return a, ""
	case "spin":
		// xorshift busy-work; the checksum defeats dead-code elimination.
		x := uint64(j.N) | 1
		for i := 0; i < j.N; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		return x, ""
	default: // echo
		return uint64(len(j.Data)), j.Data
	}
}
