package sched

// IntraSocketBias is the steal-probability weight ratio of the PWS
// scheduler: "on our 4 socket machines, we set the probability of an
// intra-socket steal to be 10 times that of an inter-socket steal" (§4.2).
const IntraSocketBias = 10

// NewPWS returns the priority work-stealing scheduler of Quintin and
// Wagner as described in §4.2: identical to WS except that steal victims
// closer in the cache hierarchy are chosen with higher probability —
// dequeues on the same socket get IntraSocketBias times the weight of
// dequeues on remote sockets (the tickets WS.victim draws from).
func NewPWS() *WS {
	return &WS{name: "PWS", costScale: 1, bias: IntraSocketBias}
}
