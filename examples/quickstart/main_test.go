package main

// Example runs the program: its output is deterministic, simulated time
// included, so any change to what it prints is a change to the model.
func Example() {
	main()
	// Output:
	// [ 20.39us] sender: putting 34 bytes
	// [ 20.98us] sender: SEND_START
	// [ 24.84us] sender: SEND_END
	// [ 25.62us] receiver: PUT_START from 0:1, 34 bytes, hdr_data=0xf00d
	// [ 29.03us] receiver: PUT_END from 0:1, 34 bytes, hdr_data=0xf00d
	// [ 29.03us] receiver: payload = "hello from node 0 over the SeaStar"
	// simulation finished at 29.18us; receiver took 2 interrupt(s)
}
