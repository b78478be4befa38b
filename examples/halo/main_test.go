package main

// Example runs the program: its output is deterministic, simulated time
// included, so any change to what it prints is a change to the model.
func Example() {
	main()
	// Output:
	// rank 0 at 0(0,0,0) exchanged 32768 B faces with [16 48 4 12 1 3]
	// 64 ranks on a 4x4x4 torus, 32 KB faces
	// step 0: halo exchange + allreduce took 371.05us
	// step 1: halo exchange + allreduce took 345.26us
	// step 2: halo exchange + allreduce took 345.26us
	// step 3: halo exchange + allreduce took 345.26us
	// step 4: halo exchange + allreduce took 345.26us
	// link utilization at node 21 X+: 2.2%
}
