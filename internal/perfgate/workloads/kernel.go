package workloads

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// KernelEventThroughput isolates the event-queue engine: one
// self-rescheduling chain, the cheapest possible schedule/fire cycle.
func KernelEventThroughput(b B) {
	k := sim.NewKernel(1)
	count := 0
	n := b.N()
	var reschedule func()
	reschedule = func() {
		count++
		if count < n {
			k.AfterFunc(sim.Time(count%97+1), reschedule)
		}
	}
	b.ResetTimer()
	k.AfterFunc(1, reschedule)
	k.Run()
}

// KernelEventChurn drives 64 interleaved self-rescheduling event chains —
// the schedule/fire pattern that dominates simulation runs — through the
// handle-free event heap.
func KernelEventChurn(b B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	remaining := b.N()
	var fire func()
	fire = func() {
		if remaining > 0 {
			remaining--
			k.AfterFunc(sim.Time(remaining%127+1), fire)
		}
	}
	b.ResetTimer()
	for i := 0; i < 64 && i < b.N(); i++ {
		k.AfterFunc(sim.Time(i+1), fire)
	}
	k.Run()
}

// TimerCancelStorm arms batches of 256 re-armable timers and stops three
// quarters of them before they fire — the slice-expiry pattern where most
// armed timers never run.
func TimerCancelStorm(b B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	const batch = 256
	fired := 0
	timers := make([]*sim.Timer, batch)
	for j := range timers {
		timers[j] = k.NewTimer(func() { fired++ })
	}
	b.ResetTimer()
	for i := 0; i < b.N(); i++ {
		want := fired + batch/4
		for j, tm := range timers {
			tm.Reset(k.Now() + sim.Time(j%61+1))
			if j%4 != 0 {
				tm.Stop()
			}
		}
		k.Run()
		if fired != want {
			b.Fatalf("fired %d of batch, want %d", fired, want)
		}
	}
}

// SliceRotation runs 16 low-priority bursts round-robin on one CPU under a
// 125 µs quantum, the RR-job slice of a fixed-architecture job on one
// node: every op is one slice end, that is one timer fire, a ready-queue
// pop and push, and a re-arm of the CPU's slice timer.
func SliceRotation(b B) {
	b.ReportAllocs()
	const bursts, quantum = 16, 125 * sim.Microsecond
	k := sim.NewKernel(1)
	cpu := machine.NewCPU(k, 0, quantum)
	rounds := (b.N() + bursts - 1) / bursts
	for i := 0; i < bursts; i++ {
		cpu.ChargeAsync(machine.PriLow, sim.Time(rounds)*quantum, nil)
	}
	b.ResetTimer()
	k.Run()
	if got, want := cpu.Stats().Dispatches, int64(rounds*bursts); got != want {
		b.Fatalf("%d slices, want %d", got, want)
	}
}

// AllToAll16 runs a 16-node mesh all-to-all exchange — the message pattern
// that stresses the store-and-forward router hot path (enqueue routing,
// link hand-off, per-hop timers).
func AllToAll16(b B) {
	b.ReportAllocs()
	const n = 16
	b.ResetTimer()
	for i := 0; i < b.N(); i++ {
		k := sim.NewKernel(1)
		mach := machine.NewMachine(k, n, 4<<20, machine.DefaultCostModel())
		ids := make([]int, n)
		for j := range ids {
			ids[j] = j
		}
		net := comm.MustNewNetwork(mach, ids, topology.MustBuild(topology.Mesh, n), comm.StoreForward)
		boxes := make([]*comm.Mailbox, n)
		for j := 0; j < n; j++ {
			boxes[j] = net.NewMailbox(j)
		}
		for j := 0; j < n; j++ {
			j := j
			k.Spawn(fmt.Sprintf("rank%d", j), func(p *sim.Proc) {
				task := net.NodeOf(j).CPU.NewTask(fmt.Sprintf("rank%d", j), machine.PriLow)
				for d := 0; d < n; d++ {
					if d == j {
						continue
					}
					net.Send(p, task, &comm.Message{
						Src: comm.Addr{Node: j}, Dst: comm.Addr{Node: d},
						Bytes: 256, Tag: "a2a",
					})
				}
				for r := 0; r < n-1; r++ {
					m := net.Recv(p, task, boxes[j])
					net.Release(m)
				}
			})
		}
		k.Run()
		stats := net.Stats()
		if stats.MessagesDelivered != n*(n-1) {
			b.Fatalf("delivered %d messages, want %d", stats.MessagesDelivered, n*(n-1))
		}
		k.Shutdown()
	}
}
