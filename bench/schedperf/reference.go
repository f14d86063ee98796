package main

import (
	"math/rand"
	"strconv"
	"sync"
)

// Host speed on a shared machine drifts by tens of percent over minutes,
// and a run's median cannot average that away. So a fixed reference
// computation, independent of the simulator's code, runs as its own child
// next to every measured child, and every time the harness reports is
// rescaled by referenceSeconds over the reference's measured wall time:
// the time the run would have taken at the reference's nominal speed.
// The reference mixes the simulator's main host costs: two goroutines
// chasing pointers through a table larger than the host caches, a baton
// handed between goroutines, and map-heavy allocation.

// referenceName is the child name of the reference computation.
const referenceName = "reference"

// referenceSeconds is the reference's nominal wall time, the unit the
// harness scales every measured time to: its median on the 2-vCPU Xeon
// container the benchmark was written on.
const referenceSeconds = 0.3

// reference runs the reference computation and returns its checksum.
func reference() string {
	const n = 2 << 20 // 8 MiB of uint32
	r := rand.New(rand.NewSource(1))
	perm := r.Perm(n)
	next := make([]uint32, n)
	for i := range next {
		next[perm[i]] = uint32(perm[(i+1)%n])
	}
	var wg sync.WaitGroup
	var ends [2]uint32
	for g := range ends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint32(g)
			for i := 0; i < 1_500_000; i++ {
				x = next[x]
			}
			ends[g] = x
		}()
	}
	wg.Wait()

	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
	}()
	v := 0
	for i := 0; i < 100_000; i++ {
		ping <- v
		v = <-pong
	}
	close(ping)

	m := map[int][]int{}
	for i := 0; i < 400_000; i++ {
		m[i%30_000] = append(m[i%30_000], i)
	}
	return strconv.Itoa(int(ends[0])) + "/" + strconv.Itoa(int(ends[1])) + "/" + strconv.Itoa(v+len(m))
}
