//go:build !race

package portals3

const raceEnabled = false
