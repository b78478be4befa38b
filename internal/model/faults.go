// Fault-injection configuration: the rule set the fabric's fault plane
// evaluates at every frame injection. Rules live in model (not fabric) so a
// whole faulty-machine scenario — timing, sizing, and failure behavior — is
// one auditable Params value, and so a seed plus a rule list fully determines
// a run (see DESIGN.md §9 for the determinism contract).
package model

import (
	"fmt"
	"strconv"
	"strings"

	"portals3/internal/sim"
)

// FaultKind selects what a matching rule does to a frame.
type FaultKind int

// Fault kinds.
const (
	// FaultDrop discards the frame. The sender's TX state machine still sees
	// it enter the wire (exactly like a frame corrupted beyond the link CRCs
	// on the real machine); it simply never arrives.
	FaultDrop FaultKind = iota
	// FaultDup delivers the frame twice: the original and an immediately
	// following copy, as a confused link-level retry would.
	FaultDup
	// FaultDelay delivers the frame Rule.Delay late. Frames of other flows
	// injected meanwhile overtake it, so a delay doubles as cross-flow
	// reordering.
	FaultDelay
	// FaultReorder is FaultDelay with a random extra latency drawn uniformly
	// from (0, Rule.Delay] per matched frame.
	FaultReorder
)

func (k FaultKind) String() string {
	return [...]string{"drop", "dup", "delay", "reorder"}[k]
}

// FrameClass selects which frames a rule applies to.
type FrameClass int

// Frame classes.
const (
	// FrameAny matches every frame type.
	FrameAny FrameClass = iota
	// FrameData matches Portals data messages (put, get, ack, reply — every
	// frame that is not NIC-level flow control).
	FrameData
	// FrameFcAck matches go-back-n FC_ACK control frames.
	FrameFcAck
	// FrameFcNack matches go-back-n FC_NACK control frames.
	FrameFcNack
)

func (c FrameClass) String() string {
	return [...]string{"any", "data", "fcack", "fcnack"}[c]
}

// AnyNode is the wildcard for FaultRule.Src/Dst.
const AnyNode = -1

// FaultRule is one fault-injection rule. The plane evaluates rules in order
// at header-injection time and applies the first that matches (a message
// suffers at most one fault; its payload chunks share the header's fate).
// Build rules with NewFault and the With*/From/To/Between modifiers — the
// zero value pins Src/Dst to node 0, which is rarely what a scenario means.
type FaultRule struct {
	Kind  FaultKind
	Frame FrameClass

	// Src and Dst scope the rule to one flow; AnyNode matches every node.
	Src, Dst int

	// Prob is the per-frame probability the rule fires once it matches,
	// drawn from the plane's seeded PRNG. 1 fires on every matching frame.
	Prob float64

	// Delay is the added latency for FaultDelay, and the exclusive upper
	// bound of the random latency for FaultReorder.
	Delay sim.Time

	// Count caps how many times the rule fires; 0 is unlimited.
	Count int

	// After/Until bound the rule's active window in virtual time; an Until
	// of zero means forever.
	After, Until sim.Time
}

// NewFault returns a rule matching every flow, to be narrowed with the
// modifiers below.
func NewFault(kind FaultKind, frame FrameClass, prob float64) FaultRule {
	return FaultRule{Kind: kind, Frame: frame, Prob: prob, Src: AnyNode, Dst: AnyNode}
}

// WithDelay sets the (maximum) added latency for delay/reorder rules.
func (r FaultRule) WithDelay(d sim.Time) FaultRule { r.Delay = d; return r }

// WithCount caps the number of times the rule fires.
func (r FaultRule) WithCount(n int) FaultRule { r.Count = n; return r }

// From scopes the rule to frames sent by one node.
func (r FaultRule) From(node int) FaultRule { r.Src = node; return r }

// To scopes the rule to frames destined to one node.
func (r FaultRule) To(node int) FaultRule { r.Dst = node; return r }

// Between bounds the rule's active window in virtual time.
func (r FaultRule) Between(after, until sim.Time) FaultRule {
	r.After, r.Until = after, until
	return r
}

// head spells a rule's kind, frame and probability, as both grammars begin
// a rule.
func (r FaultRule) head() string {
	return fmt.Sprintf("%s:%s:%s", r.Kind, r.Frame, strconv.FormatFloat(r.Prob, 'g', -1, 64))
}

// FormatFaults spells rules in ParseFaults' grammar, which carries a rule's
// kind, frame, probability and delay; scope, count and window have no
// spelling there.
func FormatFaults(rules []FaultRule) string {
	parts := make([]string, len(rules))
	for i, r := range rules {
		parts[i] = r.head()
		if r.Kind == FaultDelay || r.Kind == FaultReorder {
			parts[i] += ":" + fmtDur(r.Delay)
		}
	}
	return strings.Join(parts, ",")
}

// ParseFaults parses the CLI fault spec: comma-separated rules of the form
//
//	kind:frame:prob[:delay]
//
// e.g. "drop:data:0.02,drop:fcack:0.1,delay:data:0.05:20us". Kinds are
// drop, dup, delay, reorder; frames are any, data, fcack (ack), fcnack
// (nack); delay/reorder rules require a duration as the fourth field, in the
// schedule grammar's syntax (a Go duration, or picoseconds as "250ps").
func ParseFaults(spec string) ([]FaultRule, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []FaultRule
	for _, item := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(item), ":")
		if len(fields) < 3 {
			return nil, fmt.Errorf("fault rule %q: want kind:frame:prob[:delay]", item)
		}
		var kind FaultKind
		switch fields[0] {
		case "drop":
			kind = FaultDrop
		case "dup", "duplicate":
			kind = FaultDup
		case "delay":
			kind = FaultDelay
		case "reorder":
			kind = FaultReorder
		default:
			return nil, fmt.Errorf("fault rule %q: unknown kind %q", item, fields[0])
		}
		var frame FrameClass
		switch fields[1] {
		case "any", "all":
			frame = FrameAny
		case "data":
			frame = FrameData
		case "fcack", "ack":
			frame = FrameFcAck
		case "fcnack", "nack":
			frame = FrameFcNack
		default:
			return nil, fmt.Errorf("fault rule %q: unknown frame class %q", item, fields[1])
		}
		prob, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || !(prob > 0 && prob <= 1) { // written so NaN fails
			return nil, fmt.Errorf("fault rule %q: probability must be in (0, 1]", item)
		}
		r := NewFault(kind, frame, prob)
		if kind == FaultDelay || kind == FaultReorder {
			if len(fields) < 4 {
				return nil, fmt.Errorf("fault rule %q: %s needs a duration, e.g. %s:%s:%s:20us",
					item, fields[0], fields[0], fields[1], fields[2])
			}
			if r.Delay, err = parseDur(fields[3]); err != nil || r.Delay == 0 {
				return nil, fmt.Errorf("fault rule %q: bad duration %q", item, fields[3])
			}
		}
		out = append(out, r)
	}
	return out, nil
}
