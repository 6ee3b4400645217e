package workloads

import (
	"time"

	"repro/internal/arrival"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// ProcHandoff is one Proc.Wake -> Park round trip: a kernel event wakes a
// parked process, which parks again at once. It is the process layer's
// unit cost; every burst, message and hop of a simulated job pays it.
func ProcHandoff(b B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	n := b.N()
	p := k.Spawn("handoff", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Park("handoff")
		}
	})
	left := n
	var tick func()
	tick = func() {
		if left > 0 {
			left--
			p.Wake()
			k.AfterFunc(1, tick)
		}
	}
	k.RunUntil(0) // start the process: it parks for its first wake
	b.ResetTimer()
	k.AfterFunc(1, tick)
	k.Run()
	if !p.Finished() {
		b.Fatalf("handoff process still parked after %d wakes", n)
	}
	k.Shutdown()
}

// CPUBurst is one Task.Compute on a node where two low-priority tasks
// time-slice: each 3 ms burst spans three 1 ms quanta interleaved with the
// other task's turns, so an op is a submit, three dispatches, two
// quantum rotations, a completion and the owner's wake.
func CPUBurst(b B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	cpu := machine.NewCPU(k, 0, sim.Millisecond)
	n := b.N()
	for i, name := range []string{"a", "b"} {
		task := cpu.NewTask(name, machine.PriLow)
		calls := n / 2
		if i == 0 {
			calls = n - n/2
		}
		k.Spawn(name, func(p *sim.Proc) {
			for j := 0; j < calls; j++ {
				task.Compute(p, 3*sim.Millisecond)
			}
		})
	}
	k.RunUntil(0)
	b.ResetTimer()
	k.Run()
	if got, want := cpu.Stats().Busy(), sim.Time(n)*3*sim.Millisecond; got != want {
		b.Fatalf("CPU busy %v after %d bursts, want %v", got, n, want)
	}
	k.Shutdown()
}

// MailboxRoundtrip is one ping-pong between ranks on two adjacent nodes
// of a store-and-forward linear network: two sends, two router hops and
// two receives with their CPU overheads and buffer reservations. The
// ranks reuse their message records, so every allocation counted is the
// network's own.
func MailboxRoundtrip(b B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	mach := machine.NewMachine(k, 2, 4<<20, machine.DefaultCostModel())
	net := comm.MustNewNetwork(mach, []int{0, 1}, topology.MustBuild(topology.Linear, 2), comm.StoreForward)
	boxes := []*comm.Mailbox{net.NewMailbox(0), net.NewMailbox(1)}
	n := b.N()
	for r := 0; r < 2; r++ {
		me, peer := boxes[r], boxes[1-r]
		k.Spawn("rank", func(p *sim.Proc) {
			task := net.NodeOf(me.Addr().Node).CPU.NewTask("rank", machine.PriLow)
			var msg comm.Message
			send := func() {
				msg = comm.Message{Src: me.Addr(), Dst: peer.Addr(), Bytes: 64, Tag: "ping"}
				net.Send(p, task, &msg)
			}
			if me == boxes[0] {
				send()
			}
			for i := 0; i < n; i++ {
				net.Release(net.Recv(p, task, me))
				if me == boxes[0] && i == n-1 {
					break
				}
				send()
			}
		})
	}
	k.RunUntil(0)
	b.ResetTimer()
	k.Run()
	if got, want := net.Stats().MessagesDelivered, int64(2*n); got != want {
		b.Fatalf("delivered %d messages in %d round trips, want %d", got, n, want)
	}
	k.Shutdown()
}

// openPaperConfig is a paper-shaped open system: Poisson arrivals at
// ρ=0.2 into one 16-node linear partition under RR-job time-sharing, with
// adaptive width, so every job runs 16 processes.
func openPaperConfig(seed int64, jobs int64) core.Config {
	return core.Config{
		PartitionSize: 16,
		Topology:      topology.Linear,
		Policy:        sched.TimeShared,
		Arch:          workload.Adaptive,
		Seed:          seed,
		Arrival:       arrival.Spec{Kind: arrival.Poisson, Jobs: jobs, Load: 0.2},
	}
}

// OpenPaper runs paper-shaped open streams of 100 jobs, one seed per
// iteration, and reports simulated jobs per wall-clock second: the
// end-to-end total of the process-layer costs the proc-handoff,
// cpu-burst and mailbox-roundtrip cases measure one at a time.
func OpenPaper(b B) {
	b.ReportAllocs()
	const jobs = 100
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N(); i++ {
		start := time.Now()
		res, err := core.Run(openPaperConfig(int64(i+1), jobs))
		elapsed += time.Since(start)
		if err != nil {
			b.Fatalf("open run: %v", err)
		}
		if res.Open == nil || res.Open.Jobs != jobs {
			b.Fatalf("open summary missing or short: %+v", res.Open)
		}
	}
	if s := elapsed.Seconds(); s > 0 {
		b.ReportMetric(jobs*float64(b.N())/s, "jobs_per_sec")
	}
}

// RouterHop is one store-and-forward hop between two adjacent nodes: the
// port daemon's header burst, buffer reservation at the next node, link
// acquire and DMA sleep, then the delivery daemon's burst and the hand-off
// to the mailbox. Send and receive overheads are zeroed, and the two ranks
// send and drain in bursts of 16 a simulated second apart, so their own
// hand-offs are amortized and every op is the router layer's work.
func RouterHop(b B) {
	b.ReportAllocs()
	const burst = 16
	k := sim.NewKernel(1)
	cost := machine.DefaultCostModel()
	cost.SendOverhead, cost.RecvOverhead = 0, 0
	mach := machine.NewMachine(k, 2, 4<<20, cost)
	net := comm.MustNewNetwork(mach, []int{0, 1}, topology.MustBuild(topology.Linear, 2), comm.StoreForward)
	src, dst := net.NewMailbox(0), net.NewMailbox(1)
	n := b.N()
	received := 0
	k.Spawn("sender", func(p *sim.Proc) {
		task := mach.Node(0).CPU.NewTask("sender", machine.PriLow)
		var msgs [burst]comm.Message
		for sent := 0; sent < n; p.Sleep(sim.Second) {
			for i := 0; i < burst && sent < n; i, sent = i+1, sent+1 {
				msgs[i] = comm.Message{Src: src.Addr(), Dst: dst.Addr(), Bytes: 64, Tag: "hop"}
				net.Send(p, task, &msgs[i])
			}
		}
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		task := mach.Node(1).CPU.NewTask("receiver", machine.PriLow)
		for p.Sleep(sim.Second / 2); received < n; p.Sleep(sim.Second) {
			for m := net.TryRecv(p, task, dst); m != nil; m = net.TryRecv(p, task, dst) {
				net.Release(m)
				received++
			}
		}
	})
	b.ResetTimer()
	k.Run()
	if received != n || net.Stats().Hops != int64(n) {
		b.Fatalf("received %d messages over %d hops, want %d", received, net.Stats().Hops, n)
	}
	k.Shutdown()
}

// Campaign is the paper's own evaluation, Figures 3-6 at one engine
// worker (`ippsbench -run f3,f4,f5,f6 -j 1`): 4 figures × 16 partition
// cells × (static best, static worst, RR-job) = 192 closed 16-job
// batches, 3072 simulated jobs per iteration, reported per wall-clock
// second. It is the only case with payload traffic over up to 8 hops and
// MMU waits.
func Campaign(b B) {
	const jobs = 3072
	figures := []func(core.Config, ...engine.Options) (*experiments.Figure, error){
		experiments.Figure3, experiments.Figure4, experiments.Figure5, experiments.Figure6,
	}
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N(); i++ {
		start := time.Now()
		cells := 0
		for _, run := range figures {
			fig, err := run(core.Config{}, engine.Options{Workers: 1})
			if err != nil {
				b.Fatalf("campaign: %v", err)
			}
			cells += len(fig.Cells)
		}
		elapsed += time.Since(start)
		if cells != 64 {
			b.Fatalf("campaign ran %d cells, want 64", cells)
		}
	}
	if s := elapsed.Seconds(); s > 0 {
		b.ReportMetric(jobs*float64(b.N())/s, "jobs_per_sec")
	}
}
