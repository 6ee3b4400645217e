// Package sched implements the paper's processor scheduling policies on the
// simulated multicomputer, using the same hierarchical structure as the
// paper's software (§3.2): a super scheduler owns the system-wide FCFS ready
// queue, a partition scheduler manages each partition's processors and
// resident jobs, and the local scheduling on each node is the T805
// two-priority discipline extended with the partition scheduler's preemption
// control (per-task quanta and job-switch accounting in package machine).
//
// Three policies are provided:
//
//   - Static space-sharing: each equal partition runs exactly one job to
//     completion; other jobs wait in the global FCFS queue.
//   - TimeShared (the paper's RR-job, also the hybrid policy): all jobs are
//     distributed equitably over the partitions at batch start and every
//     process runs with quantum Q = (P/T)·q, which shares processing power
//     equally per job rather than per process. With a single partition this
//     is the paper's pure time-sharing policy; with more partitions it is
//     the hybrid policy.
//   - RRProcess: the naive round-robin that gives every process the same
//     fixed quantum q, so jobs with more processes get more power — the
//     unfair baseline of Majumdar, Eager & Bunt that §2.2 argues against.
//
// Internally every discipline — those above plus the Gang, DynamicSpace and
// zoo extensions — is a composition of three pluggable components
// (PartitionPolicy, QuantumPolicy, QueueOrder; see policy.go). The legacy
// Policy enum names the five built-in composites, and Config's component
// fields override individual components to form new disciplines.
package sched

import (
	"fmt"
	"strings"

	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/fifo"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Policy selects the scheduling discipline.
type Policy int

const (
	// Static is run-to-completion space sharing.
	Static Policy = iota
	// TimeShared is the paper's RR-job time-sharing / hybrid policy.
	TimeShared
	// RRProcess is the fixed-per-process-quantum baseline.
	RRProcess
	// Gang is an extension policy: explicit coscheduling. All processes of
	// the active job run together; the partition scheduler rotates whole
	// jobs every basic quantum. Not in the paper, but the natural
	// alternative time-sharing discipline (Ousterhout-style) to compare
	// RR-job against.
	Gang
	// DynamicSpace is an extension policy: space sharing with per-job
	// contiguous power-of-two blocks from a buddy pool, sized by an
	// equipartition heuristic — the dynamic-partitioning family the paper's
	// §2.1 describes but does not implement. Config.PartitionSize caps the
	// block a single job may receive.
	DynamicSpace
)

func (p Policy) String() string {
	switch p {
	case Static:
		return "static"
	case TimeShared:
		return "time-shared"
	case RRProcess:
		return "rr-process"
	case Gang:
		return "gang"
	case DynamicSpace:
		return "dynamic"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses a policy name.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "static", "space", "space-sharing":
		return Static, nil
	case "time-shared", "ts", "hybrid", "rr-job":
		return TimeShared, nil
	case "rr-process", "rrp":
		return RRProcess, nil
	case "gang", "cosched":
		return Gang, nil
	case "dynamic", "dynamic-space", "dyn":
		return DynamicSpace, nil
	}
	return 0, fmt.Errorf("sched: unknown policy %q", s)
}

// Config describes one scheduling system instance.
type Config struct {
	// Machine is the multicomputer to schedule on.
	Machine *machine.Machine
	// PartitionSize p: the machine is split into Size/p equal partitions.
	PartitionSize int
	// Topology is the interconnect configured inside each partition.
	Topology topology.Kind
	// Mode is the switching discipline (store-and-forward reproduces the
	// paper; wormhole is the ablation).
	Mode comm.Mode
	// Policy is the scheduling discipline: one of the five built-in
	// composites of the three policy components.
	Policy Policy
	// PartitionPolicy, QuantumPolicy and QueueOrder override individual
	// policy components; zero values inherit the component from Policy, so
	// a config that sets none of them behaves (and hashes) exactly as
	// before these fields existed.
	PartitionPolicy PartitionKind
	QuantumPolicy   QuantumKind
	QueueOrder      OrderKind
	// BasicQuantum is q in Q = (P/T)·q. Zero defaults to the hardware
	// quantum from the machine's cost model.
	BasicQuantum sim.Time
	// MaxResident bounds how many jobs a partition holds at once under the
	// time-sharing policies — the hybrid policy's "set size" tuning
	// parameter (§2.3). Zero admits everything, the paper's configuration.
	// Ignored by the static policy (whose set size is always one).
	MaxResident int
	// Fault, when non-nil, configures fault injection and the recovery
	// machinery (message retry, checkpoint/restart, scheduler repair). A
	// zero-valued config is inert and reproduces fault-free results exactly.
	// Not supported with the DynamicSpace policy; link faults, drops and
	// reliable delivery additionally require store-and-forward mode.
	Fault *fault.Config
	// Tracer, when non-nil, receives job and message events.
	Tracer trace.Tracer
	// ResumeFrom marks a warm-start restore (see state.go): fault-plan
	// events at or before this time are not armed (the donor run already
	// fired them), and RestoreState installs the donor state before
	// SubmitResume re-enters the remaining jobs. Zero — the normal case —
	// arms everything and changes nothing.
	ResumeFrom sim.Time
}

// System wires the scheduler hierarchy for one batch run. A System is
// single-use: build, RunBatch once, read the result.
type System struct {
	cfg   Config
	k     *sim.Kernel
	parts []*Partition

	// The resolved policy components (see policy.go). spec is the
	// fully-resolved triple; the three objects implement it.
	spec    PolicySpec
	partpol PartitionPolicy
	quant   QuantumPolicy
	order   QueueOrder

	pending   fifo.Ring[*jobState] // global ready queue (space-sharing policies), in queue order
	records   []metrics.JobRecord
	remaining int
	started   int
	used      bool

	// Open-system streaming state (SubmitStream). src supplies jobs one at
	// a time — the next is pulled only when the previous has been injected,
	// so the kernel never holds more than one future arrival event and
	// memory stays flat over any stream length. onComplete consumes each
	// job record in completion order instead of appending to records.
	src        JobSource
	onComplete func(metrics.JobRecord)
	streaming  bool

	// Buddy-pool state (dynamic and equi space-sharing).
	pool       *buddy
	dynParts   []*Partition
	dynRunning int
	equiJobs   []*jobState // running malleable jobs, in admission order

	// carried holds network contributions of per-job partitions retired by a
	// donor run before a warm-start snapshot; buildResult folds them in so a
	// restored run reports the same aggregates as its cold equivalent.
	carried []CarriedNet

	// Fault-injection and repair state (see repair.go).
	inj        *fault.Injector
	faultStats metrics.FaultStats
	stalled    fifo.Ring[*jobState] // killed jobs waiting for any partition to heal
	runningNow int
	fatalErr   error
}

// Partition is one equal share of the machine with its own interconnect.
type Partition struct {
	idx  int
	size int
	net  *comm.Network
	busy bool // static policy: a job is resident

	// Time-sharing admission control (MaxResident > 0).
	resident int
	queue    fifo.Ring[*jobState]

	// Gang-scheduling rotation state.
	gangJobs  []*jobState
	gangIdx   int
	gangTimer *sim.Timer // created on the first arm

	// Fault state: which local nodes are down. A degraded partition accepts
	// no jobs until every node is repaired.
	nodeDown  []bool
	downCount int
	// jobs are the launched (loading or running) jobs, in admission order,
	// so a node failure can tear them down deterministically.
	jobs []*jobState
}

// degraded reports whether any node of the partition is down.
func (p *Partition) degraded() bool { return p.downCount > 0 }

// jobState tracks one job through the system.
type jobState struct {
	job       *workload.Job
	rec       metrics.JobRecord
	env       *workload.Env
	procsLeft int
	part      *Partition

	// Fault-tolerance state. epoch increments on every kill, invalidating
	// the job's outstanding loader, checkpoint timers and spawned procs;
	// restarts counts kills against the restart budget.
	epoch    int
	restarts int
	loaded   bool
	finished bool
	procs    []*sim.Proc
	runtimes []*workload.Runtime
	// ckpt is the per-rank compute snapshot of the last checkpoint; it
	// survives kills so a restart can replay checkpointed work.
	ckpt []sim.Time
}

// loaderName is the lazily formatted name of a job's image loader.
type loaderName jobState

func (n *loaderName) String() string { return fmt.Sprintf("load job%d", n.job.ID) }

// New validates the configuration, resolves the policy components and
// builds the partition state.
func New(cfg Config) (*System, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("sched: nil machine")
	}
	if cfg.BasicQuantum == 0 {
		cfg.BasicQuantum = cfg.Machine.Cost.Quantum
	}
	if cfg.BasicQuantum < 0 {
		return nil, fmt.Errorf("sched: negative basic quantum %v", cfg.BasicQuantum)
	}
	spec, err := ResolveSpec(cfg.Policy, cfg.PartitionPolicy, cfg.QuantumPolicy, cfg.QueueOrder)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, k: cfg.Machine.K, spec: spec}
	s.partpol, s.quant, s.order = spec.policies()
	poolBased := spec.Partition == PartBuddy || spec.Partition == PartEqui
	if cfg.Fault != nil {
		if err := cfg.Fault.Validate(); err != nil {
			return nil, err
		}
		f := *cfg.Fault
		enabled := f.Active() || f.Reliable() || f.Checkpointing()
		if poolBased && enabled {
			name := "dynamic space-sharing"
			if spec.Partition == PartEqui {
				name = "malleable equipartitioning"
			}
			return nil, fmt.Errorf("sched: fault injection is not supported with %s", name)
		}
		if cfg.Mode == comm.Wormhole && (f.LinkMTBF > 0 || f.DropProb > 0 || f.Reliable()) {
			return nil, fmt.Errorf("sched: link faults, message drops and reliable delivery require store-and-forward mode")
		}
		if (f.LinkMTBF > 0 || f.DropProb > 0) && !f.Reliable() {
			return nil, fmt.Errorf("sched: link faults and message drops need RetryTimeout (reliable delivery) to recover lost messages")
		}
	}
	if err := s.partpol.Setup(s); err != nil {
		return nil, err
	}
	// The local schedulers' job-switch overhead applies machine-wide.
	for _, n := range cfg.Machine.Nodes {
		n.CPU.SetSwitchCost(cfg.Machine.Cost.JobSwitch)
	}
	if !poolBased {
		if err := s.wireFaults(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Partitions returns the partition count.
func (s *System) Partitions() int { return len(s.parts) }

// Remaining reports jobs not yet completed (valid during a run; used by
// samplers to decide when to stop).
func (s *System) Remaining() int { return s.remaining }

// Running reports jobs dispatched but not yet completed (jobs killed by a
// fault and awaiting re-dispatch are not running).
func (s *System) Running() int { return s.runningNow }

// RunBatch submits the batch at time zero, runs the simulation to
// completion, and returns the measured result. It fails if any job cannot
// finish (for example a memory deadlock), reporting the stuck processes.
func (s *System) RunBatch(batch workload.Batch) (*metrics.Result, error) {
	if err := s.Submit(batch); err != nil {
		return nil, err
	}
	return s.Finish()
}

// Submit enters every job of the batch into the system at its arrival time
// without running the simulation. Callers that need to observe or pause the
// run (warm-state forking steps the kernel to a fork point) use Submit +
// Finish; RunBatch composes them.
func (s *System) Submit(batch workload.Batch) error {
	return s.submitAfter(batch, 0)
}

// submitAfter is the shared submission path: jobs with Arrival <= after are
// skipped (after > 0 only on a warm-start restore, where the donor run
// already completed them and RestoreState installed their records).
func (s *System) submitAfter(batch workload.Batch, after sim.Time) error {
	if s.used {
		return fmt.Errorf("sched: System is single-use; build a new one per batch")
	}
	s.used = true
	var jobs []*jobState
	idxOf := make([]int, 0, len(batch))
	for i, job := range batch {
		if after > 0 && job.Arrival <= after {
			continue
		}
		jobs = append(jobs, &jobState{
			job: job,
			rec: metrics.JobRecord{JobID: job.ID, Class: job.Class, Arrival: job.Arrival},
		})
		idxOf = append(idxOf, i)
	}
	if len(jobs)+len(s.records) != len(batch) {
		return fmt.Errorf("sched: resume at %v: %d jobs still to run plus %d completed != batch of %d",
			after, len(jobs), len(s.records), len(batch))
	}
	s.remaining = len(jobs)

	// Jobs enter the system at their arrival times (zero for the paper's
	// closed batches; the open-system experiments set Poisson arrivals).
	// Arrive receives the job's original batch index — partition routing
	// (job i to partition i mod P) must not shift on a resume.
	for j, js := range jobs {
		s.partpol.Arrive(s, js, idxOf[j])
	}
	return nil
}

// JobSource streams jobs into an open-system run, in nondecreasing Arrival
// order. Next returns ok=false when the stream ends; the scheduler calls it
// from simulation events, one job ahead of the clock, so a source never
// needs to materialize its workload.
type JobSource interface {
	Next() (*workload.Job, bool)
}

// SubmitStream enters an open-system job stream instead of a closed batch:
// jobs inject at their arrival times as the simulation advances, and each
// completed job's record is handed to onComplete rather than retained (the
// caller streams it into bounded-memory statistics). Incompatible with
// warm-start resume — an arrival stream has no snapshot representation.
func (s *System) SubmitStream(src JobSource, onComplete func(metrics.JobRecord)) error {
	if s.used {
		return fmt.Errorf("sched: System is single-use; build a new one per batch")
	}
	if s.cfg.ResumeFrom > 0 {
		return fmt.Errorf("sched: open-system streams cannot resume from a snapshot")
	}
	if src == nil || onComplete == nil {
		return fmt.Errorf("sched: SubmitStream needs a source and a completion sink")
	}
	s.used = true
	s.streaming = true
	s.src = src
	s.onComplete = onComplete
	s.pump()
	return nil
}

// pump pulls jobs from the stream and injects every one due now; the first
// future arrival schedules one kernel event that injects it and pumps
// again. Exactly one pending arrival exists at any instant, so kernel
// memory is independent of stream length, and the loop (rather than
// recursion) keeps the stack flat when a trace carries equal timestamps.
func (s *System) pump() {
	for s.src != nil {
		job, ok := s.src.Next()
		if !ok {
			s.src = nil
			return
		}
		js := &jobState{
			job: job,
			rec: metrics.JobRecord{JobID: job.ID, Class: job.Class, Arrival: job.Arrival},
		}
		s.remaining++
		// Partition routing keys on the job's stream position, exactly as
		// closed batches key on the batch index.
		if job.Arrival > s.k.Now() {
			s.k.AtFunc(job.Arrival, func() {
				s.partpol.Arrive(s, js, job.ID)
				s.pump()
			})
			return
		}
		s.partpol.Arrive(s, js, job.ID)
	}
}

// StreamPending reports whether an open-system stream still has jobs to
// inject (always false on closed-batch runs).
func (s *System) StreamPending() bool { return s.src != nil }

// Queued reports jobs waiting for processors: the global ready queue,
// fault-stalled jobs, and per-partition admission queues.
func (s *System) Queued() int {
	n := s.pending.Len() + s.stalled.Len()
	for _, p := range s.parts {
		n += p.queue.Len()
	}
	for _, p := range s.dynParts {
		n += p.queue.Len()
	}
	return n
}

// Finish runs the submitted simulation to completion and builds the result.
func (s *System) Finish() (*metrics.Result, error) {
	s.k.Run()
	if s.fatalErr != nil {
		return nil, s.fatalErr
	}
	if s.remaining > 0 {
		return nil, fmt.Errorf("sched: %d jobs did not complete\n%s", s.remaining, s.Diagnose())
	}
	return s.buildResult(), nil
}

// Diagnose reports why the system is stuck: per-node memory pressure with
// the queue-head waiter, and every parked process. Useful when a
// configuration overcommits the 4 MB nodes into a buffer deadlock.
func (s *System) Diagnose() string {
	var b strings.Builder
	b.WriteString("memory pressure:\n")
	for _, n := range s.cfg.Machine.Nodes {
		if n.Mem.Waiting() == 0 {
			continue
		}
		fmt.Fprintf(&b, "  node %d: %d/%d bytes used, %d waiters for %d bytes; head: %s\n",
			n.ID, n.Mem.Used(), n.Mem.Capacity(), n.Mem.Waiting(), n.Mem.PendingBytes(), n.Mem.OldestWaiter())
	}
	b.WriteString("parked processes:\n")
	for _, p := range s.k.ParkedProcs() {
		fmt.Fprintf(&b, "  %s\n", p)
	}
	return b.String()
}

// atArrival runs fn when the job enters the system.
func (s *System) atArrival(js *jobState, fn func()) {
	if js.job.Arrival <= 0 {
		fn()
		return
	}
	s.k.AtFunc(js.job.Arrival, fn)
}

// arriveReady enqueues a job in the global ready queue — ordered by the
// configured QueueOrder (FCFS within priority bands by default) — and
// offers it to the free partitions.
func (s *System) arriveReady(js *jobState) {
	s.enqueue(&s.pending, js)
	for _, part := range s.parts {
		s.dispatchNext(part)
	}
}

// admit starts a job on a time-shared partition, or queues it when the
// partition's job set is full. A degraded partition is substituted by the
// healthiest surviving one; with no partition up, the job stalls until a
// repair.
func (s *System) admit(part *Partition, js *jobState) {
	if part.degraded() {
		alt := s.survivingPartition()
		if alt == nil {
			s.stalled.Push(js)
			return
		}
		part = alt
	}
	s.place(part, js)
}

// place starts a job on a healthy time-shared partition, honouring the
// MaxResident admission cap.
func (s *System) place(part *Partition, js *jobState) {
	if s.cfg.MaxResident > 0 && part.resident >= s.cfg.MaxResident {
		s.enqueue(&part.queue, js)
		return
	}
	part.resident++
	s.launch(part, js)
}

// dispatchNext hands the FCFS queue head to a free, healthy partition
// (static policy).
func (s *System) dispatchNext(part *Partition) {
	if part.busy || part.degraded() || s.pending.Len() == 0 {
		return
	}
	js := s.pending.Pop()
	part.busy = true
	s.launch(part, js)
}

// launch dispatches a job to a partition: its image is first loaded from
// the host workstation over the single shared host link (loads serialize
// there — under time-sharing all 16 jobs queue for it at batch start), then
// its processes run.
func (s *System) launch(part *Partition, js *jobState) {
	s.started++
	s.runningNow++
	if js.restarts > 0 {
		s.faultStats.Restarts++
	}
	js.rec.Started = s.k.Now()
	js.rec.Partition = part.idx
	js.part = part
	part.jobs = append(part.jobs, js)
	// The loader is never aborted (it may hold the shared host link); a kill
	// bumps the job's epoch instead, and the loader backs out at its next
	// epoch check without leaving memory behind.
	epoch := js.epoch
	if s.cfg.Tracer != nil {
		trace.Emit(s.cfg.Tracer, s.k.Now(), "job", js.job.String(),
			fmt.Sprintf("dispatched to partition %d", part.idx))
	}
	s.k.SpawnNamed((*loaderName)(js), func(p *sim.Proc) {
		host := s.cfg.Machine.Host
		host.Acquire(p)
		bytes := js.job.App.LoadBytes()
		p.Sleep(s.cfg.Machine.Cost.LoadTime(bytes))
		host.CountTransfer(bytes)
		host.Release()
		if js.epoch != epoch {
			return // job was killed while its image was on the host link
		}
		// The job's program image stays resident on every partition node
		// for its lifetime; at high multiprogramming levels this code
		// residency is what presses the 4 MB nodes.
		for i := 0; i < part.size; i++ {
			part.net.NodeOf(i).Mem.Alloc(p, workload.CodeBytes, mem.ClassData)
			if js.epoch != epoch {
				// Killed while waiting for node memory: give back what we
				// took and stop.
				for j := 0; j <= i; j++ {
					part.net.NodeOf(j).Mem.FreeBytes(workload.CodeBytes)
				}
				return
			}
		}
		js.loaded = true
		if s.cfg.Tracer != nil {
			trace.Emit(s.cfg.Tracer, s.k.Now(), "load", js.job.String(),
				fmt.Sprintf("image resident (%dB)", bytes))
		}
		s.startProcs(part, js)
	})
}

// startProcs places the loaded job's processes on the partition nodes and
// starts them.
func (s *System) startProcs(part *Partition, js *jobState) {
	t := js.job.Procs(part.size)
	// Ranks map round-robin onto the partition nodes with rank 0 — the
	// coordinator holding the job's input data — on the partition's root
	// node, as transputer toolchains place the master process on the
	// processor facing the host. Piling every resident job's coordinator on
	// the root is exactly what concentrates memory demand and link traffic
	// there under the time-sharing policies.
	nodeOf := make([]int, t)
	for r := range nodeOf {
		nodeOf[r] = r % part.size
	}
	env := workload.NewEnv(part.net, js.job.ID, nodeOf)
	js.part = part
	js.env = env
	js.procsLeft = t
	js.rec.Processes = t
	js.procs = make([]*sim.Proc, t)
	js.runtimes = make([]*workload.Runtime, t)
	if js.ckpt == nil {
		js.ckpt = make([]sim.Time, t)
	}

	quantum := s.quant.QuantumFor(s, part, t)
	for r := 0; r < t; r++ {
		binding := env.Ranks[r]
		binding.Task.SetGroup(js.job.ID)
		if quantum > 0 {
			binding.Task.SetQuantum(quantum)
		}
	}
	s.quant.Started(s, part, js)
	epoch := js.epoch
	for r := 0; r < t; r++ {
		binding := env.Ranks[r]
		r := r
		js.procs[r] = s.k.SpawnNamed(&env.Ranks[r].Name, func(p *sim.Proc) {
			var rt *workload.Runtime
			defer func() {
				// A kill aborts the process; reclaim whatever it still held
				// and let the unwind finish. Any other panic propagates.
				if rec := recover(); rec != nil {
					if _, ok := rec.(sim.Aborted); !ok {
						panic(rec)
					}
					if rt != nil {
						rt.Cleanup()
					}
				}
			}()
			// Process creation cost, charged to the job itself.
			binding.Task.Compute(p, s.cfg.Machine.Cost.SpawnOverhead)
			rt = workload.NewRuntime(p, env, r)
			js.runtimes[r] = rt
			if c := js.ckpt[r]; c > 0 {
				rt.SetCredit(c)
			}
			// The process's workspace is resident until the job ends;
			// Cleanup returns it with everything else the process holds.
			rt.AllocData(workload.WorkspaceBytes)
			js.job.App.Run(rt, r)
			rt.Cleanup()
			if js.epoch == epoch {
				s.procDone(js)
			}
		})
	}
	s.armCheckpoint(js)
}

// procDone accounts a finished process; the job completes with its last
// process, at which point the partition policy dispatches successors.
func (s *System) procDone(js *jobState) {
	js.procsLeft--
	if js.procsLeft > 0 {
		return
	}
	js.finished = true
	s.runningNow--
	removeJob(js.part, js)
	js.rec.Completed = s.k.Now()
	if s.onComplete != nil {
		s.onComplete(js.rec)
	} else {
		s.records = append(s.records, js.rec)
	}
	s.remaining--
	if s.cfg.Tracer != nil {
		trace.Emit(s.cfg.Tracer, s.k.Now(), "job", js.job.String(),
			fmt.Sprintf("completed, response %s", js.rec.Response()))
	}
	for i := 0; i < js.part.size; i++ {
		js.part.net.NodeOf(i).Mem.FreeBytes(workload.CodeBytes)
	}
	// Streamed runs free the job's mailboxes so the network's mailbox table
	// stays bounded by jobs in flight, not jobs ever run. Closed batches
	// keep them registered, preserving the historical network state
	// byte-for-byte (snapshots hash it).
	if s.streaming && js.env != nil {
		for _, b := range js.env.Ranks {
			js.part.net.FreeMailbox(b.Box)
		}
	}
	s.quant.Departed(s, js.part, js)
	s.partpol.Complete(s, js)
}

// buildResult collects job records and machine/network statistics.
func (s *System) buildResult() *metrics.Result {
	res := &metrics.Result{
		Label: s.Label(),
		Jobs:  s.records,
	}
	for _, rec := range s.records {
		if rec.Completed > res.Makespan {
			res.Makespan = rec.Completed
		}
	}
	for _, n := range s.cfg.Machine.Nodes {
		cs := n.CPU.Stats()
		ms := n.Mem.Stats()
		res.Nodes = append(res.Nodes, metrics.NodeUsage{
			Node:             n.ID,
			BusyHigh:         cs.BusyHigh + cs.BusySwitch,
			BusyLow:          cs.BusyLow,
			Preemptions:      cs.Preemptions,
			QuantumExpiries:  cs.QuantumExpiries,
			MemPeak:          ms.Peak,
			MemBlockedAllocs: ms.BlockedAllocs,
			MemBlockedTime:   ms.BlockedTime,
		})
	}
	var agg comm.Stats
	for _, part := range append(append([]*Partition(nil), s.parts...), s.dynParts...) {
		agg.Add(part.net.Stats())
		total, max := part.net.LinkStats()
		res.Net.LinkBusy += total.BusyTime
		res.Net.LinkWait += total.WaitTime
		if max.BusyTime > res.Net.MaxLinkBusy {
			res.Net.MaxLinkBusy = max.BusyTime
		}
	}
	// Per-job partitions the donor run retired before a warm-start snapshot
	// contribute through their carried aggregates.
	for _, c := range s.carried {
		agg.Add(c.Stats)
		res.Net.LinkBusy += c.LinkTotal.BusyTime
		res.Net.LinkWait += c.LinkTotal.WaitTime
		if c.LinkMax.BusyTime > res.Net.MaxLinkBusy {
			res.Net.MaxLinkBusy = c.LinkMax.BusyTime
		}
	}
	res.Net.Messages = agg.MessagesSent
	res.Net.PayloadBytes = agg.PayloadBytes
	res.Net.Hops = agg.Hops
	res.Net.TotalLatency = agg.TotalLatency
	res.Net.Drops = agg.Drops
	res.Net.Retries = agg.Retries
	res.Net.Duplicates = agg.Duplicates
	res.Net.DeadLetters = agg.DeadLetters
	res.Net.DeliveryFailures = agg.DeliveryFailures
	res.Net.HostBusy = s.cfg.Machine.Host.Stats().BusyTime
	if s.cfg.Fault != nil {
		fs := s.faultStats
		if s.inj != nil {
			fs.Add(s.inj.Stats())
		}
		res.Faults = &fs
	}
	return res
}
