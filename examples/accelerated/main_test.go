package main

// Example runs the program: its output is deterministic, simulated time
// included, so any change to what it prints is a change to the model.
func Example() {
	main()
	// Output:
	// one-way put latency, generic vs accelerated (paper §3.3)
	//  size(B)      generic  accelerated      saved interrupts g/a
	//        0       5.15us       4.01us     1.14us      204 / 0
	//        8       5.40us       4.26us     1.14us      204 / 0
	//       12       5.41us       4.26us     1.14us      204 / 0
	//       16       8.63us       4.67us     3.96us      306 / 0
	//       64       8.65us       4.69us     3.96us      306 / 0
	//      256       8.74us       4.78us     3.96us      306 / 0
	//     1024       9.09us       5.13us     3.96us      306 / 0
	//     4096      10.50us       7.80us     2.70us      306 / 0
	//    16384      21.13us      18.87us     2.26us      306 / 0
	//
	// note the step past 12 bytes in generic mode (second interrupt, §6)
	// and that the accelerated data path takes zero interrupts.
}
