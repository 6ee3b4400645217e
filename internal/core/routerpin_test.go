package core

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arrival"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// routerPin is what one run of the store-and-forward pipeline must
// reproduce: the kernel's event count, the network and MMU totals, and a
// stall report taken while router daemons are mid-hop.
type routerPin struct {
	Events            int64
	Msgs, Hops, Drops int64
	LinkWait          sim.Time
	BlockedAllocs     int64
	BlockedTime       sim.Time
	Parked            int      // processes parked at the mid-run instant
	ParkedSHA         string   // sha256 of the whole list, one name per line, first 16 hex digits
	ParkedRouters     []string // the router daemons among them that are not idle
}

// runRouterPin runs cfg as Run does, stopping once at mid for the stall
// report.
func runRouterPin(t *testing.T, cfg Config, mid sim.Time) routerPin {
	t.Helper()
	cfg = cfg.withDefaults()
	r, err := newRun(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.k.Shutdown()
	r.armFirstSample()
	if cfg.Arrival.IsZero() {
		err = r.sys.Submit(r.batch)
	} else {
		src, serr := arrival.NewSource(cfg.Arrival, cfg.Seed, cfg.Processors, *cfg.AppCost)
		if serr != nil {
			t.Fatal(serr)
		}
		defer src.Close()
		col := newOpenCollector(r.k, r.sys, cfg.Arrival, cfg.Processors)
		err = r.sys.SubmitStream(src, col.complete)
	}
	if err != nil {
		t.Fatal(err)
	}
	r.k.RunUntil(mid)
	parked := r.k.ParkedProcs()
	res, err := r.finish()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(strings.Join(parked, "\n")))
	pin := routerPin{
		Events:    r.k.EventsRun(),
		Msgs:      res.Net.Messages,
		Hops:      res.Net.Hops,
		Drops:     res.Net.Drops,
		LinkWait:  res.Net.LinkWait,
		Parked:    len(parked),
		ParkedSHA: hex.EncodeToString(sum[:8]),
	}
	for _, n := range res.Nodes {
		pin.BlockedAllocs += n.MemBlockedAllocs
		pin.BlockedTime += n.MemBlockedTime
	}
	for _, p := range parked {
		if strings.HasPrefix(p, "router") && !strings.HasSuffix(p, " idle)") {
			pin.ParkedRouters = append(pin.ParkedRouters, p)
		}
	}
	return pin
}

// TestRouterPipelinePins pins the router daemons' whole store-and-forward
// pipeline on three runs that together take every forwarding branch: the
// paper-shaped open stream (CPU header processing, DMA sleeps, delivery),
// a memory-bound time-sharing matmul batch whose routers wait for buffer
// space at the next node, and a link-fault run that reroutes queued and
// in-flight messages and loses some on the wire. The literals were
// generated with one coroutine per router daemon; any router rewrite must
// reproduce them exactly.
func TestRouterPipelinePins(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		mid  sim.Time
		want routerPin
	}{
		{
			name: "open-paper",
			cfg: Config{PartitionSize: 16, Topology: topology.Linear, Policy: sched.TimeShared, Arch: workload.Adaptive, Seed: 1,
				Arrival: arrival.Spec{Kind: arrival.Poisson, Jobs: 100, Load: 0.2}},
			mid: 300*sim.Millisecond + 7,
			want: routerPin{Events: 153771, Msgs: 3000, Hops: 24000, Parked: 49, ParkedSHA: "db299340051d63c3",
				ParkedRouters: []string{
					"router2.port0 (parked: cpu burst on node 2)",
					"router4.port0 (parked: cpu burst on node 4)",
					"router7.port0 (parked: cpu burst on node 7)",
					"router9.port0 (parked: cpu burst on node 9)",
					"router12.port0 (parked: cpu burst on node 12)",
				}},
		},
		{
			name: "mesh16-ts-matmul-mem",
			cfg:  Config{PartitionSize: 16, Topology: topology.Mesh, Policy: sched.TimeShared, App: MatMul, Arch: workload.Fixed, Seed: 1},
			mid:  1100 * sim.Millisecond,
			want: routerPin{Events: 26135, Msgs: 720, Hops: 2304, BlockedAllocs: 480, BlockedTime: 65065966,
				Parked: 276, ParkedSHA: "8068af976cc66390",
				ParkedRouters: []string{
					"router0.port0 (parked: cpu burst on node 0)",
					"router1.deliver (parked: cpu burst on node 1)",
					"router1.port0 (parked: mem alloc 1792B on node 0)",
					"router1.port1 (parked: sleep 55.683ms)",
					"router4.port0 (parked: mem alloc 1352B on node 0)",
				}},
		},
		{
			name: "mesh8-link-faults",
			cfg: Config{PartitionSize: 8, Topology: topology.Mesh, Policy: sched.TimeShared, App: MatMul, Arch: workload.Adaptive, Seed: 1,
				Fault: &fault.Config{Seed: 3, LinkMTBF: 200 * sim.Millisecond, LinkMTTR: 10 * sim.Millisecond, Horizon: 2 * sim.Second,
					RetryTimeout: 100 * sim.Millisecond, DropProb: 0.01, RestartBudget: 1 << 20}},
			mid: 800 * sim.Millisecond,
			// Two partitions, so two routers per local index.
			want: routerPin{Events: 23966, Msgs: 336, Hops: 2344, Drops: 84, BlockedAllocs: 233, BlockedTime: 56522151,
				Parked: 212, ParkedSHA: "405696606435ba31",
				ParkedRouters: []string{
					"router0.port0 (parked: sleep 13.938ms)",
					"router0.port1 (parked: sleep 13.938ms)",
					"router1.port0 (parked: mem alloc 3112B on node 0)",
					"router1.port1 (parked: sleep 55.683ms)",
					"router2.port1 (parked: sleep 55.683ms)",
					"router4.port0 (parked: sleep 13.938ms)",
					"router4.port1 (parked: sleep 55.683ms)",
					"router5.port0 (parked: sleep 55.683ms)",
					"router0.port0 (parked: sleep 55.683ms)",
					"router1.port0 (parked: mem alloc 3112B on node 8)",
					"router1.port1 (parked: sleep 55.683ms)",
					"router2.port1 (parked: sleep 55.683ms)",
					"router4.port0 (parked: mem alloc 3112B on node 8)",
					"router4.port1 (parked: sleep 6.601ms)",
					"router5.port0 (parked: sleep 1.794ms)",
					"router5.port2 (parked: sleep 55.683ms)",
				}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runRouterPin(t, tc.cfg, tc.mid)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("got  %#v\nwant %#v", got, tc.want)
			}
		})
	}
}
