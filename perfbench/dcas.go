package main

import (
	"sync"
	"time"

	"dcasdeque/internal/dcas"
)

// dcasCost is the DCAS provider's own cost, timed apart from any deque:
// two goroutines calling dcas.Default().DCAS, first each on its own
// pair of locations (the deque's two ends when they are far apart),
// then both on one shared pair (the ends meeting).
type dcasCost struct {
	uncontendedNs float64 // per successful DCAS
	contendedNs   float64 // per DCAS attempt, successful or not
}

const (
	dcasCalls = 1 << 18 // per goroutine per repetition
	dcasReps  = 5
)

func measureDCAS() dcasCost {
	prov := dcas.Default()
	var disjoint, shared []float64
	for r := 0; r < dcasReps; r++ {
		disjoint = append(disjoint, timeDCAS(prov, false))
		shared = append(shared, timeDCAS(prov, true))
	}
	return dcasCost{uncontendedNs: median(disjoint), contendedNs: median(shared)}
}

// timeDCAS returns the mean wall time per call of each of two
// goroutines making dcasCalls calls.
func timeDCAS(prov dcas.Provider, sharePair bool) float64 {
	locs := make([]dcas.PaddedLoc, 4)
	for i := range locs {
		dcas.AssignIDs(&locs[i].Loc)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < 2; g++ {
		a1, a2 := &locs[2*g].Loc, &locs[2*g+1].Loc
		if sharePair {
			a1, a2 = &locs[0].Loc, &locs[1].Loc
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < dcasCalls; i++ {
				o1, o2 := a1.Load(), a2.Load()
				prov.DCAS(a1, a2, o1, o2, o1+1, o2+1)
			}
		}()
	}
	wg.Wait()
	return float64(time.Since(start).Nanoseconds()) / dcasCalls
}
