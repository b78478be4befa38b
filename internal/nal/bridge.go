// Package nal is the network abstraction layer of the reference Portals
// implementation plus Cray's bridge layer on top of it (paper §3.2): the
// pieces that connect the user-level API to the library and the library to
// the SeaStar firmware (the SSNAL, §3.3).
//
// Three bridges exist, as on the XT3:
//
//   - qkbridge — Catamount compute node applications (a ~75 ns trap per
//     API call into the lightweight kernel);
//   - ukbridge — Linux user-level applications (a full syscall per call);
//   - kbridge — Linux kernel-level clients such as Lustre (direct calls).
//
// A fourth crossing, the accelerated-mode path of §3.3, posts commands from
// user space directly to a dedicated firmware mailbox with no system call
// at all. ukbridge and kbridge clients share one node's generic driver, as
// the paper notes they share the network interface cleanly.
package nal

import (
	"portals3/internal/oskernel"
	"portals3/internal/sim"
)

// Bridge is the API-to-library crossing of one Portals call.
type Bridge interface {
	// Cross is what one crossing costs the calling process: the API charges
	// it as a sleep, and none when it is 0.
	Cross() sim.Time
	// Name identifies the bridge in diagnostics.
	Name() string
}

// QKBridge is the Catamount user-to-kernel bridge.
type QKBridge struct{ K *oskernel.Kernel }

// Cross is one Catamount trap (§3.3: ~75 ns).
func (b QKBridge) Cross() sim.Time { return b.K.TrapCost() }

// Name returns "qkbridge".
func (b QKBridge) Name() string { return "qkbridge" }

// UKBridge is the Linux user-to-kernel bridge.
type UKBridge struct{ K *oskernel.Kernel }

// Cross is one Linux system call.
func (b UKBridge) Cross() sim.Time { return b.K.TrapCost() }

// Name returns "ukbridge".
func (b UKBridge) Name() string { return "ukbridge" }

// KBridge is the Linux kernel-level client bridge (Lustre services): the
// client already runs in kernel space, so the crossing is a function call.
type KBridge struct{}

// Cross costs nothing.
func (KBridge) Cross() sim.Time { return 0 }

// Name returns "kbridge".
func (KBridge) Name() string { return "kbridge" }

// AccelBridge is the accelerated-mode crossing: commands go straight from
// user space to the process's dedicated firmware mailbox, "without
// performing any system calls" (§3.3).
type AccelBridge struct{}

// Cross costs nothing.
func (AccelBridge) Cross() sim.Time { return 0 }

// Name returns "accel".
func (AccelBridge) Name() string { return "accel" }
