package sched

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fifo"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestPolicySpecLegacyRoundTrip: every legacy policy factors into a unique
// component triple that resolves, canonicalizes and renders back to itself.
func TestPolicySpecLegacyRoundTrip(t *testing.T) {
	seen := map[PolicySpec]Policy{}
	for p := Static; p <= DynamicSpace; p++ {
		spec := p.Spec()
		if prev, dup := seen[spec]; dup {
			t.Fatalf("%v and %v share the spec %+v — Legacy() would be ambiguous", prev, p, spec)
		}
		seen[spec] = p
		if canon, ok := spec.Legacy(); !ok || canon != p {
			t.Errorf("%v.Spec().Legacy() = %v, %v", p, canon, ok)
		}
		if spec.String() != p.String() {
			t.Errorf("%v.Spec().String() = %q, want the legacy name", p, spec.String())
		}
		resolved, err := ResolveSpec(p, PartDefault, QuantumDefault, OrderDefault)
		if err != nil || resolved != spec {
			t.Errorf("ResolveSpec(%v, defaults) = %+v, %v", p, resolved, err)
		}
		// Spelling the composite out explicitly resolves to the same spec.
		explicit, err := ResolveSpec(p, spec.Partition, spec.Quantum, spec.Order)
		if err != nil || explicit != spec {
			t.Errorf("explicit ResolveSpec(%v) = %+v, %v", p, explicit, err)
		}
	}
}

// TestPolicySpecComposedString: genuinely new compositions render as the
// partition/quantum/order triple and report no legacy equivalent.
func TestPolicySpecComposedString(t *testing.T) {
	spec, err := ResolveSpec(TimeShared, PartDefault, QuantumDynamic, OrderSRPT)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := spec.Legacy(); ok {
		t.Errorf("composed spec %+v claims a legacy equivalent", spec)
	}
	if got := spec.String(); got != "shared/dynamic/srpt" {
		t.Errorf("composed String() = %q", got)
	}
	equi, err := ResolveSpec(DynamicSpace, PartEqui, QuantumDefault, OrderDefault)
	if err != nil {
		t.Fatal(err)
	}
	if got := equi.String(); got != "equi/none/fcfs" {
		t.Errorf("equi String() = %q", got)
	}
}

// TestPolicyKindParseRoundTrip: every registered name and alias parses, the
// canonical name round-trips through String, and the discovery listings
// agree with the parsers.
func TestPolicyKindParseRoundTrip(t *testing.T) {
	for _, info := range PartitionPolicies() {
		k, err := ParsePartitionKind(info.Name)
		if err != nil || k.String() != info.Name {
			t.Errorf("partition %q: parse = %v, %v", info.Name, k, err)
		}
		for _, a := range info.Aliases {
			if ak, err := ParsePartitionKind(a); err != nil || ak != k {
				t.Errorf("partition alias %q: parse = %v, %v", a, ak, err)
			}
		}
	}
	for _, info := range QuantumPolicies() {
		k, err := ParseQuantumKind(info.Name)
		if err != nil || k.String() != info.Name {
			t.Errorf("quantum %q: parse = %v, %v", info.Name, k, err)
		}
		for _, a := range info.Aliases {
			if ak, err := ParseQuantumKind(a); err != nil || ak != k {
				t.Errorf("quantum alias %q: parse = %v, %v", a, ak, err)
			}
		}
	}
	for _, info := range QueueOrders() {
		k, err := ParseOrderKind(info.Name)
		if err != nil || k.String() != info.Name {
			t.Errorf("order %q: parse = %v, %v", info.Name, k, err)
		}
		for _, a := range info.Aliases {
			if ak, err := ParseOrderKind(a); err != nil || ak != k {
				t.Errorf("order alias %q: parse = %v, %v", a, ak, err)
			}
		}
	}
	for _, info := range Policies() {
		p, err := ParsePolicy(info.Name)
		if err != nil || p.String() != info.Name {
			t.Errorf("policy %q: parse = %v, %v", info.Name, p, err)
		}
		if info.Spec != p.Spec().Partition.String()+"/"+p.Spec().Quantum.String()+"/"+p.Spec().Order.String() {
			t.Errorf("policy %q listing spec %q disagrees with Spec()", info.Name, info.Spec)
		}
	}
}

// TestUnknownPolicyErrorTyped: rejected names produce an UnknownPolicyError
// carrying the full valid vocabulary.
func TestUnknownPolicyErrorTyped(t *testing.T) {
	_, err := ParseQuantumKind("warp")
	var upe *UnknownPolicyError
	if !errors.As(err, &upe) {
		t.Fatalf("ParseQuantumKind error %T is not *UnknownPolicyError", err)
	}
	if upe.Kind != "quantum policy" || upe.Name != "warp" {
		t.Errorf("error fields: %+v", upe)
	}
	for _, want := range []string{"none", "rrjob", "fixed", "gang", "dynamic"} {
		found := false
		for _, v := range upe.Valid {
			if v == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Valid %v missing %q", upe.Valid, want)
		}
	}
	if !strings.Contains(err.Error(), "rrjob") {
		t.Errorf("message does not list valid names: %v", err)
	}
	// Component overrides on an unknown base policy fail the same way.
	if _, err := ResolveSpec(Policy(99), PartEqui, QuantumDefault, OrderDefault); err == nil {
		t.Error("ResolveSpec accepted an unknown base policy")
	}
}

// FuzzParsePolicyComponents: for arbitrary input, each component parser
// either round-trips through the canonical String spelling or fails with
// the typed error and a non-empty vocabulary — never panics, never returns
// an untyped failure.
func FuzzParsePolicyComponents(f *testing.F) {
	for _, s := range []string{"", "static", "srpt", "rr-job", "equi", "warp", ":", "default", "shared/dynamic/srpt"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if k, err := ParsePartitionKind(s); err == nil {
			if rt, err2 := ParsePartitionKind(k.String()); err2 != nil || rt != k {
				t.Errorf("partition %q: canonical %q does not round-trip", s, k.String())
			}
		} else {
			var upe *UnknownPolicyError
			if !errors.As(err, &upe) || len(upe.Valid) == 0 {
				t.Errorf("partition %q: untyped error %v", s, err)
			}
		}
		if k, err := ParseQuantumKind(s); err == nil {
			if rt, err2 := ParseQuantumKind(k.String()); err2 != nil || rt != k {
				t.Errorf("quantum %q: canonical %q does not round-trip", s, k.String())
			}
		} else {
			var upe *UnknownPolicyError
			if !errors.As(err, &upe) || len(upe.Valid) == 0 {
				t.Errorf("quantum %q: untyped error %v", s, err)
			}
		}
		if k, err := ParseOrderKind(s); err == nil {
			if rt, err2 := ParseOrderKind(k.String()); err2 != nil || rt != k {
				t.Errorf("order %q: canonical %q does not round-trip", s, k.String())
			}
		} else {
			var upe *UnknownPolicyError
			if !errors.As(err, &upe) || len(upe.Valid) == 0 {
				t.Errorf("order %q: untyped error %v", s, err)
			}
		}
	})
}

// TestEnqueueOrderProperty: the stable ready-queue insert keeps the queue
// sorted under each QueueOrder and preserves arrival order among peers the
// order considers equal.
func TestEnqueueOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	orders := []QueueOrder{fcfsOrder{}, priorityOrder{}, srptOrder{}}
	for _, ord := range orders {
		s := &System{order: ord}
		var q fifo.Ring[*jobState]
		for i := 0; i < 200; i++ {
			js := &jobState{job: &workload.Job{
				ID:       i,
				Priority: rng.Intn(3),
				App:      workload.NewSynthetic(sim.Time(1+rng.Intn(50))*sim.Millisecond, 64, 256, workload.DefaultAppCost()),
			}}
			s.enqueue(&q, js)
		}
		for i := 0; i+1 < q.Len(); i++ {
			if ord.Before(q.At(i+1), q.At(i)) {
				t.Fatalf("%T: queue out of order at %d", ord, i)
			}
		}
		// Equal elements keep arrival order: a stable re-insert of the same
		// queue must reproduce it exactly.
		s2 := &System{order: ord}
		var q2 fifo.Ring[*jobState]
		for i := 0; i < q.Len(); i++ {
			s2.enqueue(&q2, q.At(i))
		}
		for i := 0; i < q.Len(); i++ {
			if eq := !ord.Before(q.At(i), q2.At(i)) && !ord.Before(q2.At(i), q.At(i)); !eq {
				t.Fatalf("%T: re-insert changed relative order at %d", ord, i)
			}
		}
	}
}

// TestDynQuantumFormula: Q = (P/(T·R))·q with clamps and the microsecond
// floor.
func TestDynQuantumFormula(t *testing.T) {
	s := &System{cfg: Config{BasicQuantum: 8 * sim.Millisecond}}
	part := &Partition{size: 8}
	cases := []struct {
		t, r int
		want sim.Time
	}{
		{8, 1, 8 * sim.Millisecond},       // degenerates to RR-job
		{8, 2, 4 * sim.Millisecond},       // second resident halves the slice
		{4, 4, 4 * sim.Millisecond},       // 8*8ms/16
		{0, 0, 64 * sim.Millisecond},      // clamps t and r to 1
		{100000, 100000, sim.Microsecond}, // floored at 1µs
	}
	for _, c := range cases {
		if got := dynQuantum(s, part, c.t, c.r); got != c.want {
			t.Errorf("dynQuantum(t=%d, r=%d) = %v, want %v", c.t, c.r, got, c.want)
		}
	}
}

// TestDynamicQuantumCompletesAndIsDeterministic: the dynamic-quantum zoo
// policy runs a batch to completion, twice, identically.
func TestDynamicQuantumCompletesAndIsDeterministic(t *testing.T) {
	once := func() (sim.Time, sim.Time) {
		mach := testMachine(4)
		res := run(t, mach, Config{PartitionSize: 4, Topology: topology.Ring, Policy: TimeShared,
			QuantumPolicy: QuantumDynamic, BasicQuantum: 2 * sim.Millisecond},
			syntheticBatch(6, 30*sim.Millisecond, workload.Adaptive))
		if len(res.Jobs) != 6 {
			t.Fatalf("jobs = %d", len(res.Jobs))
		}
		for _, n := range mach.Nodes {
			if n.Mem.Used() != 0 {
				t.Errorf("node %d memory leaked", n.ID)
			}
		}
		return res.MeanResponse(), res.Makespan
	}
	m1, mk1 := once()
	m2, mk2 := once()
	if m1 != m2 || mk1 != mk2 {
		t.Errorf("dynamic quantum nondeterministic: %v/%v vs %v/%v", m1, mk1, m2, mk2)
	}
}

// TestSRPTDrainsShortestFirst: with one static partition, the SRPT queue
// completes the short jobs before the long ones regardless of submission
// order.
func TestSRPTDrainsShortestFirst(t *testing.T) {
	batch := make(workload.Batch, 6)
	for i := range batch {
		w := 20 * sim.Millisecond
		class := "small"
		if i%2 == 0 { // long jobs submitted first and interleaved
			w = 200 * sim.Millisecond
			class = "large"
		}
		batch[i] = &workload.Job{ID: i, Class: class, Arch: workload.Adaptive,
			App: workload.NewSynthetic(w, 256, 1024, workload.DefaultAppCost())}
	}
	mach := testMachine(4)
	res := run(t, mach, Config{PartitionSize: 4, Topology: topology.Ring, Policy: Static,
		QueueOrder: OrderSRPT}, batch)
	if len(res.Jobs) != 6 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	// Completion order: after the head-of-line job, every small job beats
	// every large job.
	var classes []string
	for _, j := range res.Jobs {
		classes = append(classes, j.Class)
	}
	for i := 1; i < len(classes)-1; i++ {
		if classes[i] == "large" {
			for _, later := range classes[i+1:] {
				if later == "small" {
					t.Fatalf("SRPT completed a large job before a small one: %v", classes)
				}
			}
		}
	}
}

// TestPriorityOrderBreaksTiesByWork: within one priority band the priority
// queue prefers shorter estimated work; across bands priority still wins.
func TestPriorityOrderBreaksTiesByWork(t *testing.T) {
	mk := func(pri int, w sim.Time) *jobState {
		return &jobState{job: &workload.Job{Priority: pri,
			App: workload.NewSynthetic(w, 64, 256, workload.DefaultAppCost())}}
	}
	ord := priorityOrder{}
	long, short := mk(0, 100*sim.Millisecond), mk(0, 10*sim.Millisecond)
	if !ord.Before(short, long) || ord.Before(long, short) {
		t.Error("same band: shorter work should come first")
	}
	lowShort, highLong := mk(0, 10*sim.Millisecond), mk(1, 100*sim.Millisecond)
	if !ord.Before(highLong, lowShort) {
		t.Error("higher priority must beat shorter work")
	}
	// SRPT ignores bands entirely.
	if (srptOrder{}).Before(highLong, lowShort) {
		t.Error("srpt should ignore priority bands")
	}
}
