package main

// Example runs the program: its output is deterministic, simulated time
// included, so any change to what it prints is a change to the model.
func Example() {
	main()
	// Output:
	// size(B)   one-way latency
	//       0   5.15us
	//       1   5.39us
	//       4   5.40us
	//       8   5.40us
	//      12   5.41us  <- last size that rides the header packet (§6)
	//      13   8.63us  <- first size needing the second interrupt
	//      16   8.63us
	//      64   8.65us
	//     256   8.74us
	//    1024   9.09us
}
