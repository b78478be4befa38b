// A Job is one torus run as a value. It is the one place a workload name is
// resolved: to its runner, its defaults, its checks, its message count and
// its netpipe spelling. cmd/netpipe reads its torus flags into a Job and
// soak's torus campaigns are Jobs, so Args prints any of them as the netpipe
// command that replays it, and ParseJob reads that command back.
package experiments

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"time"

	"portals3/internal/flightrec"
	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// Job is a TrafficConfig and the workload that runs it: halo (TorusHalo),
// collective (TorusCollective), or random or hotspot (TorusTraffic, uniform
// or with HotFrac of each sender's messages aimed at HotNode). A zero Steps,
// Bytes or Radius means the workload's default (Resolved). Build one with
// ParseJob, which gives every field its flag's default: Args spells a field
// wherever it differs from that default, so a zero Dim or Msgs spells as
// -dim 0 or -msgs 0.
type Job struct {
	TrafficConfig
	Workload string
}

// Resolved is the configuration Run runs: each zero Steps, Bytes and Radius
// set to the benchmark shape's (DefaultTorusConfig; a collective's vector
// is 256 bytes, 32 slots), no sampler without telemetry, and no hot spot in
// uniform traffic.
func (j Job) Resolved() Job {
	def := DefaultTorusConfig()
	if j.Workload == "collective" {
		def.Bytes = 256
	}
	j.Steps = cmp.Or(j.Steps, def.Steps)
	j.Bytes = cmp.Or(j.Bytes, def.Bytes)
	j.Radius = cmp.Or(j.Radius, def.Radius)
	if !j.Telemetry {
		j.SamplePeriod = 0
	}
	if j.Workload == "random" {
		j.HotFrac = 0
	}
	return j
}

// Run runs the job's workload.
func (j Job) Run() TorusResult {
	j = j.Resolved()
	switch j.Workload {
	case "halo":
		return TorusHalo(j.TorusConfig)
	case "collective":
		return TorusCollective(j.TorusConfig)
	case "random", "hotspot":
		return TorusTraffic(j.TrafficConfig)
	}
	panic(fmt.Sprintf("experiments: unknown workload %q", j.Workload))
}

// Msgs is the number of messages a correct run delivers: six faces per node
// and step, the collective trees' edges, or every sender's messages. (The
// method hides TrafficConfig's field of that name, messages per sender.)
func (j Job) Msgs() int {
	j = j.Resolved()
	switch j.Workload {
	case "halo":
		return j.Dim * j.Dim * j.Dim * 6 * j.Steps
	case "collective":
		return CollectiveMsgs(j.Dim*j.Dim*j.Dim, j.Steps)
	}
	return TrafficMsgs(j.TrafficConfig)
}

// Title is the header line a driver prints above a run's results.
func (j Job) Title(r TorusResult) string {
	j = j.Resolved()
	d := j.Dim
	switch j.Workload {
	case "halo":
		face := fmt.Sprintf("%d KB", j.Bytes/1024)
		if j.Bytes%1024 != 0 {
			face = fmt.Sprintf("%d B", j.Bytes)
		}
		return fmt.Sprintf("# torus halo: %d nodes (%dx%dx%d, radius %d), %s faces, %d steps, shards=%d\n",
			r.Nodes, d, d, d, j.Radius, face, j.Steps, r.Shards)
	case "collective":
		return fmt.Sprintf("# torus collective: %d ranks (%dx%dx%d), %d-byte vectors, %d allreduce+bcast rounds, shards=%d\n",
			r.Nodes, d, d, d, j.Bytes, j.Steps, r.Shards)
	case "random":
		return fmt.Sprintf("# torus uniform traffic: %d nodes (%dx%dx%d), %d x %d B per sender at load %.2f, shards=%d\n",
			r.Nodes, d, d, d, j.TrafficConfig.Msgs, j.Bytes, j.Load, r.Shards)
	}
	return fmt.Sprintf("# torus hot-spot traffic: %d nodes (%dx%dx%d), %d x %d B per sender at load %.2f, %.0f%% -> node %d, shards=%d\n",
		r.Nodes, d, d, d, j.TrafficConfig.Msgs, j.Bytes, j.Load, 100*j.HotFrac, j.HotNode, r.Shards)
}

// Validate checks a job before any machine exists, so a driver can turn a
// bad combination into one diagnostic line instead of a panic deep in
// construction. Each error names the flag that spells the field at fault.
func (j Job) Validate() error {
	nodes := j.Dim * j.Dim * j.Dim
	switch {
	case j.Dim < 3:
		return fmt.Errorf("-dim %d: a torus needs dim >= 3 (smaller axes have no wraparound)", j.Dim)
	case j.Shards < 1:
		return fmt.Errorf("-shards %d: the kernel needs at least one event lane", j.Shards)
	case j.Shards > nodes:
		return fmt.Errorf("-shards %d exceeds the %d-node torus: surplus lanes would sit permanently empty", j.Shards, nodes)
	}
	switch j.Workload {
	case "hotspot":
		if j.HotNode < 0 || int(j.HotNode) >= nodes {
			return fmt.Errorf("-hot %d outside the %d-node torus", j.HotNode, nodes)
		}
		if !(j.HotFrac > 0 && j.HotFrac <= 1) { // written so NaN fails
			return fmt.Errorf("-hotfrac %g must be in (0, 1]", j.HotFrac)
		}
		fallthrough
	case "random":
		if !(j.Load > 0) {
			return fmt.Errorf("-load %g must be positive", j.Load)
		}
	case "halo", "collective":
	default:
		return fmt.Errorf("unknown -workload %q (want halo, collective, random or hotspot)", j.Workload)
	}
	tp, _ := topo.XT3Torus(j.Dim, j.Dim, j.Dim) // dim >= 3: no error
	if err := j.Schedule.Validate(tp); err != nil {
		return fmt.Errorf("-schedule: %v", err)
	}
	return CheckStallWindow(j.StallWindow, j.GoBackN || len(j.Faults) > 0 || len(j.Schedule) > 0)
}

// CheckStallWindow rejects a stall window shorter than the go-back-n
// timeout while the protocol runs: every wait for a retransmission would
// read as a stall, and each would file a report.
func CheckStallWindow(window sim.Time, gbn bool) error {
	if timeout := model.Defaults().GbnTimeout; gbn && window > 0 && window < timeout {
		return fmt.Errorf("-dump-on-stall %d is shorter than the go-back-n timeout of %v: every retransmission wait would report as a stall",
			window/sim.Microsecond, timeout)
	}
	return nil
}

// jobFlags is a Job as its flags spell it: the Job's own fields where one
// flag sets one field, and the flags that combine into a field after
// parsing (faults and schedule in their grammars, periods in whole
// microseconds, -flightrec, -flightrec-events and -dump-on-stall into
// FlightRec).
type jobFlags struct {
	Job
	hot                           int
	faults, schedule              string
	flightrec                     bool
	sampleUs, ringEvents, stallUs int
}

// define makes fs's flags read into f and sets f to their defaults.
func (f *jobFlags) define(fs *flag.FlagSet) {
	fs.StringVar(&f.Workload, "workload", "halo", "torus workload: halo, collective, random, hotspot or sweep (with -torus)")
	fs.IntVar(&f.Dim, "dim", 8, "torus dimension: dim^3 nodes (with -torus)")
	fs.IntVar(&f.Shards, "shards", 1, "event lanes for the sharded parallel kernel (with -torus)")
	fs.IntVar(&f.Steps, "steps", 0, "iterations: halo exchange steps or collective rounds, 0 for the workload default (with -torus)")
	fs.IntVar(&f.Bytes, "bytes", 0, "halo face, collective vector or traffic message size in bytes, 0 for the workload default (with -torus)")
	fs.IntVar(&f.Radius, "radius", 0, "halo partner distance in hops, 0 for the default 2 (with -workload halo)")
	fs.IntVar(&f.TrafficConfig.Msgs, "msgs", 8, "messages per sender (with -workload random/hotspot/sweep)")
	fs.Float64Var(&f.Load, "load", 1.0, "offered load per sender as a fraction of link line rate (with -workload random/hotspot)")
	fs.IntVar(&f.hot, "hot", 0, "hot-spot destination node id (with -workload hotspot)")
	fs.Float64Var(&f.HotFrac, "hotfrac", 0.2, "probability a message targets the hot node (with -workload hotspot)")
	fs.Uint64Var(&f.Seed, "wseed", 1, "destination-stream seed (with -workload random/hotspot/sweep)")
	fs.BoolVar(&f.GoBackN, "gbn", false, "enable the go-back-n loss/exhaustion recovery protocol (with -series or -torus)")
	fs.StringVar(&f.faults, "faults", "", "seeded fault injection: kind:frame:prob[:delay] rules, comma-separated (kinds drop,dup,delay,reorder; frames any,data,fcack,fcnack)")
	fs.Int64Var(&f.FaultSeed, "faultseed", 0, "fault plane PRNG seed; 0 uses the built-in default (with -faults)")
	fs.StringVar(&f.schedule, "schedule", "", "declarative timed-fault schedule: linkdown:NODE:DIR:AT:DUR, stall:NODE:AT:DUR, restart:NODE:AT:DUR, burst:KIND:FRAME:PROB:AT:DUR[:DELAY], corrupt:NODE:AT, comma-separated; works at any -shards count (combine with -gbn to recover losses)")
	fs.BoolVar(&f.Telemetry, "telemetry", false, "record telemetry and write BASE.telemetry.json (with -series or -torus)")
	fs.IntVar(&f.sampleUs, "sample", 1000, "telemetry sampler period in simulated microseconds, 0 to disable (with -telemetry)")
	fs.BoolVar(&f.flightrec, "flightrec", false, "enable the per-node flight recorder and write BASE.p3dump, each node's first failure report's dump beside it as BASE.<i>.<kind>.p3dump (with -series or -torus)")
	fs.IntVar(&f.ringEvents, "flightrec-events", flightrec.DefaultRingEvents, "flight recorder ring bound per node; a bound above the run's event count keeps every event")
	fs.IntVar(&f.stallUs, "dump-on-stall", 0, "stall detection window in simulated microseconds, at least the go-back-n timeout with -gbn; a stalled flow files a report with a dump (implies -flightrec)")
	fs.BoolVar(&f.HostProf, "hostprof", false, "write the host-execution profile (per-lane busy/wait/drain, stragglers, memory watermarks) as BASE.hostprof.json (with -torus)")
	fs.DurationVar(&f.ProgressEvery, "progress-every", time.Second, "progress line period in wall-clock (with -progress)")
}

// job reads the Job out of parsed flags, checking each flag's own range.
func (f *jobFlags) job() (Job, error) {
	for _, c := range []struct {
		name     string
		val, min int
	}{
		{"msgs", f.TrafficConfig.Msgs, 1}, {"steps", f.Steps, 0}, {"bytes", f.Bytes, 0}, {"radius", f.Radius, 0},
		{"sample", f.sampleUs, 0}, {"flightrec-events", f.ringEvents, 1}, {"dump-on-stall", f.stallUs, 0},
	} {
		if c.val < c.min {
			return Job{}, fmt.Errorf("-%s %d must be at least %d", c.name, c.val, c.min)
		}
	}
	if max(f.sampleUs, f.stallUs) > math.MaxInt64/int(sim.Microsecond) {
		return Job{}, errors.New("-sample/-dump-on-stall: more microseconds than the simulated clock holds")
	}
	if f.ProgressEvery <= 0 {
		return Job{}, fmt.Errorf("-progress-every %v must be positive", f.ProgressEvery)
	}
	j := f.Job
	if j.HotNode = topo.NodeID(f.hot); int(j.HotNode) != f.hot {
		return Job{}, fmt.Errorf("-hot %d is no node id", f.hot)
	}
	var err error
	if j.Faults, err = model.ParseFaults(f.faults); err != nil {
		return Job{}, fmt.Errorf("-faults: %v", err)
	}
	if j.Schedule, err = model.ParseSchedule(f.schedule); err != nil {
		return Job{}, fmt.Errorf("-schedule: %v", err)
	}
	if f.flightrec || f.stallUs > 0 { // a stall dump needs the recorder
		j.FlightRec = f.ringEvents
	}
	j.SamplePeriod = sim.Time(f.sampleUs) * sim.Microsecond
	j.StallWindow = sim.Time(f.stallUs) * sim.Microsecond
	return j, nil
}

// JobFlags defines a Job's flags on fs and returns what reads the Job out
// of them once fs has parsed — the one parser of a Job's fields, for
// ParseJob and for a command that defines flags of its own beside them.
func JobFlags(fs *flag.FlagSet) func() (Job, error) {
	f := new(jobFlags)
	f.define(fs)
	return f.job
}

// ParseJob reads a Job from netpipe's torus arguments, as Args spells them.
// It checks what each flag holds; Validate checks how they combine.
func ParseJob(args []string) (Job, error) {
	fs := flag.NewFlagSet("job", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	parse := JobFlags(fs)
	if err := fs.Parse(args); err != nil {
		return Job{}, err
	}
	if fs.NArg() > 0 {
		return Job{}, errors.New("unexpected argument " + fs.Arg(0))
	}
	return parse()
}

// Args is the canonical netpipe argument list of j: -workload, then in
// name order every flag whose value differs from its default, a switch as
// its bare name. ParseJob(j.Args()) is j but for what has no spelling:
// Progress, a period's fraction of a microsecond, and a stall
// window without the flight recorder (the window spells -dump-on-stall,
// which arms the recorder, an observer that moves no simulated number).
func (j Job) Args() []string {
	fs := flag.NewFlagSet("job", flag.ContinueOnError)
	f := new(jobFlags)
	f.define(fs)
	f.Job, f.hot = j, int(j.HotNode)
	f.faults, f.schedule = model.FormatFaults(j.Faults), j.Schedule.String()
	if j.FlightRec > 0 {
		f.flightrec, f.ringEvents = j.StallWindow == 0, j.FlightRec
	}
	f.sampleUs, f.stallUs = int(j.SamplePeriod/sim.Microsecond), int(j.StallWindow/sim.Microsecond)
	args := []string{"-workload", j.Workload}
	fs.VisitAll(func(fl *flag.Flag) {
		switch v := fl.Value.String(); {
		case v == fl.DefValue || fl.Name == "workload":
		case v == "true": // no switch defaults to true
			args = append(args, "-"+fl.Name)
		default:
			args = append(args, "-"+fl.Name, v)
		}
	})
	return args
}
