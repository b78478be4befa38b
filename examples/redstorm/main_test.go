package main

// Example runs the program: its output is deterministic, simulated time
// included, so any change to what it prints is a change to the model.
func Example() {
	main()
	// Output:
	// Red Storm: 27x16x24 = 10368 nodes, torus in Z, diameter 53 hops
	//
	// 8-byte put latency by distance (paper §1: 2 us near, 5 us far for MPI):
	//   nearest neighbor (1 hop)      1 hops   5.40us
	//   across one cabinet row       13 hops   6.37us
	//   opposite corner of a plane   41 hops   8.63us
	//   farthest pair (diameter)     53 hops   9.59us
	//
	// scattered 8-rank MPI job, allreduce across the machine:
	//   sum over 8 scattered ranks = 8 (want 8), allreduce took 55.59us
	//   nodes instantiated: 8 of 10368
}
