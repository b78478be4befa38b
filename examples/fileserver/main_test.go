package main

// Example runs the program: its output is deterministic, simulated time
// included, so any change to what it prints is a change to the model.
func Example() {
	main()
	// Output:
	// [  51.17us] client: sent WRITE request for object 7
	// [ 130.83us] oss: WRITE obj 7 (65536 B) from client 1:1
	// [ 351.76us] client: sent READ request for object 7
	// [ 424.49us] oss: READ  obj 7 served to client 1:1
	// [ 751.76us] client: read-back intact: true
	// [ 757.58us] monitor (ukbridge, same node as the oss): got PUT_START from 1:1
	// done at 5.000ms; service node took 9 interrupts
}
