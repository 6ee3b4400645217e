package sched

// The pluggable policy framework. The paper's disciplines — and the zoo of
// extensions — decompose into three orthogonal components:
//
//   - PartitionPolicy: how the machine is carved into partitions and how
//     jobs map onto them (fixed one-job partitions, fixed shared
//     partitions, per-job buddy blocks, malleable equipartition).
//   - QuantumPolicy: how a job's preemption quantum is derived (none,
//     the paper's Q=(P/T)·q rule, fixed per process, gang rotation,
//     dynamic per-group).
//   - QueueOrder: how waiting jobs are ordered (FCFS within priority
//     bands, priority + shortest-work, SRPT-like).
//
// The legacy Policy enum names five composites of these components and
// remains the configuration surface for the paper's experiments. The
// default contract is bit-identity: resolving a legacy Policy with
// zero-valued component overrides yields policy objects whose composed
// behaviour — event order, quanta, queue positions, stats labels — is
// exactly the pre-framework code path, so every golden output and every
// canonical config hash is unchanged.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fifo"
	"repro/internal/sim"
)

// PartitionKind selects a PartitionPolicy implementation.
type PartitionKind int

const (
	// PartDefault derives the partition policy from the legacy Policy.
	PartDefault PartitionKind = iota
	// PartFixed is equal fixed partitions, one job each, run to completion
	// (the static policy's allocation).
	PartFixed
	// PartShared is equal fixed partitions with jobs distributed equitably
	// and time-shared (the RR-job/hybrid allocation).
	PartShared
	// PartBuddy carves per-job contiguous power-of-two blocks from a buddy
	// pool, equipartition-sized at arrival, run to completion.
	PartBuddy
	// PartEqui is malleable equipartitioning: per-job buddy blocks re-sized
	// at every arrival and departure; running jobs migrate to their new
	// block carrying their compute credit.
	PartEqui
)

// QuantumKind selects a QuantumPolicy implementation.
type QuantumKind int

const (
	// QuantumDefault derives the quantum policy from the legacy Policy.
	QuantumDefault QuantumKind = iota
	// QuantumNone leaves the hardware default quantum in place.
	QuantumNone
	// QuantumRRJob is the paper's rule Q = (P/T)·q: equal processing power
	// per job rather than per process.
	QuantumRRJob
	// QuantumFixed gives every process the same basic quantum q.
	QuantumFixed
	// QuantumGang coschedules: whole jobs rotate every basic quantum.
	QuantumGang
	// QuantumDynamic re-derives per-group quanta as the partition's
	// resident set changes: Q = (P/(T·R))·q for R resident jobs, so the
	// slice adapts to load instead of being fixed at launch.
	QuantumDynamic
)

// OrderKind selects a QueueOrder implementation.
type OrderKind int

const (
	// OrderDefault derives the queue order from the legacy Policy.
	OrderDefault OrderKind = iota
	// OrderFCFS is arrival order within explicit priority bands — the
	// paper's ready queue.
	OrderFCFS
	// OrderPriority orders by explicit priority bands, then shortest
	// estimated work within a band.
	OrderPriority
	// OrderSRPT orders by shortest remaining estimated work, ignoring
	// explicit priorities.
	OrderSRPT
)

// PolicySpec is a fully-resolved policy triple: no component is a Default.
type PolicySpec struct {
	Partition PartitionKind
	Quantum   QuantumKind
	Order     OrderKind
}

// Spec returns the component triple a legacy policy is composed of.
func (p Policy) Spec() PolicySpec {
	switch p {
	case Static:
		return PolicySpec{PartFixed, QuantumNone, OrderFCFS}
	case TimeShared:
		return PolicySpec{PartShared, QuantumRRJob, OrderFCFS}
	case RRProcess:
		return PolicySpec{PartShared, QuantumFixed, OrderFCFS}
	case Gang:
		return PolicySpec{PartShared, QuantumGang, OrderFCFS}
	case DynamicSpace:
		return PolicySpec{PartBuddy, QuantumNone, OrderFCFS}
	default:
		return PolicySpec{}
	}
}

// ResolveSpec composes the effective policy triple from a legacy policy and
// per-component overrides; zero-valued overrides inherit from the policy.
// This is the single resolution point the scheduler, the config hash and
// the labels all share, so a config written either way means — and hashes —
// the same thing.
func ResolveSpec(p Policy, pk PartitionKind, qk QuantumKind, ok OrderKind) (PolicySpec, error) {
	base := p.Spec()
	if base == (PolicySpec{}) {
		return PolicySpec{}, &UnknownPolicyError{Kind: "policy", Name: p.String(), Valid: policyNames()}
	}
	spec := base
	if pk != PartDefault {
		if partitionKinds.name(int(pk)) == "" {
			return PolicySpec{}, &UnknownPolicyError{Kind: "partition policy", Name: fmt.Sprintf("%d", int(pk)), Valid: partitionKinds.names()}
		}
		spec.Partition = pk
	}
	if qk != QuantumDefault {
		if quantumKinds.name(int(qk)) == "" {
			return PolicySpec{}, &UnknownPolicyError{Kind: "quantum policy", Name: fmt.Sprintf("%d", int(qk)), Valid: quantumKinds.names()}
		}
		spec.Quantum = qk
	}
	if ok != OrderDefault {
		if orderKinds.name(int(ok)) == "" {
			return PolicySpec{}, &UnknownPolicyError{Kind: "queue order", Name: fmt.Sprintf("%d", int(ok)), Valid: orderKinds.names()}
		}
		spec.Order = ok
	}
	return spec, nil
}

// Legacy returns the built-in Policy whose component triple equals the
// spec, if there is one. The five built-in triples are pairwise distinct,
// so the mapping is unambiguous.
func (spec PolicySpec) Legacy() (Policy, bool) {
	for p := Static; p <= DynamicSpace; p++ {
		if p.Spec() == spec {
			return p, true
		}
	}
	return 0, false
}

// String renders the spec canonically: the legacy policy name when the
// triple is one of the five composites (which keeps result labels and CSV
// rows byte-identical to the pre-framework code), the slash-joined
// component names otherwise.
func (spec PolicySpec) String() string {
	if p, ok := spec.Legacy(); ok {
		return p.String()
	}
	return spec.Partition.String() + "/" + spec.Quantum.String() + "/" + spec.Order.String()
}

// policies builds the three policy objects of the spec. Resolution already
// validated every component.
func (spec PolicySpec) policies() (PartitionPolicy, QuantumPolicy, QueueOrder) {
	var pp PartitionPolicy
	switch spec.Partition {
	case PartFixed:
		pp = fixedPartition{}
	case PartShared:
		pp = sharedPartition{}
	case PartBuddy:
		pp = buddyPartition{}
	case PartEqui:
		pp = equiPartition{}
	}
	var qp QuantumPolicy
	switch spec.Quantum {
	case QuantumNone:
		qp = noQuantum{}
	case QuantumRRJob:
		qp = rrJobQuantum{}
	case QuantumFixed:
		qp = fixedQuantum{}
	case QuantumGang:
		qp = gangQuantum{}
	case QuantumDynamic:
		qp = dynamicQuantum{}
	}
	var qo QueueOrder
	switch spec.Order {
	case OrderFCFS:
		qo = fcfsOrder{}
	case OrderPriority:
		qo = priorityOrder{}
	case OrderSRPT:
		qo = srptOrder{}
	}
	return pp, qp, qo
}

// PartitionPolicy decides how the machine is carved into partitions and how
// jobs enter, leave and (after a fault) re-enter them. Implementations are
// stateless values; all mutable state lives on the System so the policy
// objects compose freely.
type PartitionPolicy interface {
	// Kind identifies the policy.
	Kind() PartitionKind
	// Setup builds the partition state at System construction.
	Setup(s *System) error
	// Arrive schedules a job's entry into the system; idx is the job's
	// batch position (the shared policies deal jobs round-robin by it).
	Arrive(s *System, js *jobState, idx int)
	// Complete releases a finished job's processors and dispatches
	// successors.
	Complete(s *System, js *jobState)
	// Killed reclaims a partition's slot after a fault kill tore its
	// resident job down.
	Killed(s *System, part *Partition)
	// Requeue returns a fault-killed job to a ready queue.
	Requeue(s *System, js *jobState)
	// Healthy dispatches waiting work when part returns to full health.
	Healthy(s *System, part *Partition)
}

// QuantumPolicy derives per-process time slices and reacts to residency
// changes on a partition.
type QuantumPolicy interface {
	// Kind identifies the policy.
	Kind() QuantumKind
	// QuantumFor is the per-process timeslice for a job of t processes on
	// part; 0 leaves the hardware default in place.
	QuantumFor(s *System, part *Partition, t int) sim.Time
	// Started runs after a loaded job's tasks are bound and quanta applied,
	// before its processes spawn.
	Started(s *System, part *Partition, js *jobState)
	// Departed runs when a launched job leaves its partition — completion,
	// fault kill or migration — after it is removed from the resident list.
	Departed(s *System, part *Partition, js *jobState)
}

// QueueOrder ranks waiting jobs. Insertion is stable: a job is placed after
// every queued job it does not strictly precede, so equal jobs keep FCFS
// order.
type QueueOrder interface {
	// Kind identifies the order.
	Kind() OrderKind
	// Before reports whether a must run strictly before b.
	Before(a, b *jobState) bool
}

// enqueue inserts js into q under the system's queue order, stable within
// ties.
func (s *System) enqueue(q *fifo.Ring[*jobState], js *jobState) {
	at := q.Len()
	for at > 0 && s.order.Before(js, q.At(at-1)) {
		at--
	}
	q.Insert(at, js)
}

// UnknownPolicyError reports an unrecognised policy, component or spec
// name, carrying the valid choices so callers (CLI, HTTP API) can surface
// them. Matched with errors.As.
type UnknownPolicyError struct {
	// Kind is what was being parsed: "policy", "partition policy",
	// "quantum policy", "queue order" or "policy spec".
	Kind string
	// Name is the rejected input.
	Name string
	// Valid lists the accepted names, aliases included.
	Valid []string
}

func (e *UnknownPolicyError) Error() string {
	return fmt.Sprintf("sched: unknown %s %q (valid: %s)", e.Kind, e.Name, strings.Join(e.Valid, ", "))
}

// kindTable is a registry of component names: canonical spelling first,
// aliases after, one entry per kind value starting at 1 (0 is the Default
// sentinel, which has no name — it means "inherit from Policy").
type kindTable struct {
	what    string
	entries []kindEntry
}

type kindEntry struct {
	names []string // canonical first
	desc  string
}

// name returns the canonical name of kind v, or "" when out of range.
func (t *kindTable) name(v int) string {
	if v < 1 || v > len(t.entries) {
		return ""
	}
	return t.entries[v-1].names[0]
}

// names lists every accepted spelling, canonical names first.
func (t *kindTable) names() []string {
	var canon, aliases []string
	for _, e := range t.entries {
		canon = append(canon, e.names[0])
		aliases = append(aliases, e.names[1:]...)
	}
	sort.Strings(aliases)
	return append(canon, aliases...)
}

// parse resolves a name to its kind value (1-based), or a typed error.
func (t *kindTable) parse(s string) (int, error) {
	for i, e := range t.entries {
		for _, n := range e.names {
			if s == n {
				return i + 1, nil
			}
		}
	}
	return 0, &UnknownPolicyError{Kind: t.what, Name: s, Valid: t.names()}
}

var partitionKinds = kindTable{what: "partition policy", entries: []kindEntry{
	{[]string{"static", "fixed"}, "equal fixed partitions, one job each, run to completion"},
	{[]string{"shared", "time-shared"}, "equal fixed partitions, jobs distributed equitably and time-shared"},
	{[]string{"buddy", "dynamic"}, "per-job power-of-two blocks from a buddy pool, equipartition-sized at arrival, run to completion"},
	{[]string{"equi", "malleable"}, "malleable equipartition: blocks re-sized on every arrival and departure, running jobs migrate with their compute credit"},
}}

var quantumKinds = kindTable{what: "quantum policy", entries: []kindEntry{
	{[]string{"none", "off"}, "no preemption quantum beyond the hardware default"},
	{[]string{"rrjob", "rr-job"}, "Q=(P/T)·q — equal processing power per job (the paper's RR-job rule)"},
	{[]string{"fixed", "rr-process"}, "every process gets the basic quantum q"},
	{[]string{"gang", "cosched"}, "coscheduled rotation: whole jobs alternate every basic quantum"},
	{[]string{"dynamic", "dyn"}, "per-group dynamic quanta: Q=(P/(T·R))·q re-derived as the resident set R changes"},
}}

var orderKinds = kindTable{what: "queue order", entries: []kindEntry{
	{[]string{"fcfs"}, "arrival order within explicit priority bands (the paper's queue)"},
	{[]string{"priority", "prio"}, "explicit priority bands, shortest estimated work within a band"},
	{[]string{"srpt", "sjf"}, "shortest remaining estimated work first"},
}}

func (k PartitionKind) String() string {
	if k == PartDefault {
		return "default"
	}
	if n := partitionKinds.name(int(k)); n != "" {
		return n
	}
	return fmt.Sprintf("PartitionKind(%d)", int(k))
}

func (k QuantumKind) String() string {
	if k == QuantumDefault {
		return "default"
	}
	if n := quantumKinds.name(int(k)); n != "" {
		return n
	}
	return fmt.Sprintf("QuantumKind(%d)", int(k))
}

func (k OrderKind) String() string {
	if k == OrderDefault {
		return "default"
	}
	if n := orderKinds.name(int(k)); n != "" {
		return n
	}
	return fmt.Sprintf("OrderKind(%d)", int(k))
}

// ParsePartitionKind parses a partition-policy name.
func ParsePartitionKind(s string) (PartitionKind, error) {
	v, err := partitionKinds.parse(s)
	return PartitionKind(v), err
}

// ParseQuantumKind parses a quantum-policy name.
func ParseQuantumKind(s string) (QuantumKind, error) {
	v, err := quantumKinds.parse(s)
	return QuantumKind(v), err
}

// ParseOrderKind parses a queue-order name.
func ParseOrderKind(s string) (OrderKind, error) {
	v, err := orderKinds.parse(s)
	return OrderKind(v), err
}

// policyNames lists every accepted legacy policy spelling.
func policyNames() []string {
	return []string{
		"static", "time-shared", "rr-process", "gang", "dynamic",
		"cosched", "dyn", "dynamic-space", "hybrid", "rr-job", "rrp", "space", "space-sharing", "ts",
	}
}

// PolicyInfo describes one registered policy or policy component, for
// discovery surfaces like schedd's GET /v1/policies.
type PolicyInfo struct {
	Name        string   `json:"name"`
	Aliases     []string `json:"aliases,omitempty"`
	Description string   `json:"description"`
	// Spec is the composed component triple ("partition/quantum/order");
	// only set for the legacy composite policies.
	Spec string `json:"spec,omitempty"`
}

// info renders a kind table as PolicyInfo entries.
func (t *kindTable) info() []PolicyInfo {
	out := make([]PolicyInfo, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, PolicyInfo{Name: e.names[0], Aliases: e.names[1:], Description: e.desc})
	}
	return out
}

// Policies lists the legacy composite policies with their component specs.
func Policies() []PolicyInfo {
	descs := map[Policy]struct {
		aliases []string
		desc    string
	}{
		Static:       {[]string{"space", "space-sharing"}, "run-to-completion space sharing (§2.1)"},
		TimeShared:   {[]string{"ts", "hybrid", "rr-job"}, "the paper's RR-job time-sharing / hybrid policy (§2.2–2.3)"},
		RRProcess:    {[]string{"rrp"}, "fixed per-process quantum — the unfair round-robin baseline"},
		Gang:         {[]string{"cosched"}, "explicit coscheduling: whole jobs rotate every basic quantum"},
		DynamicSpace: {[]string{"dynamic-space", "dyn"}, "per-job buddy blocks sized by equipartition, run to completion"},
	}
	var out []PolicyInfo
	for p := Static; p <= DynamicSpace; p++ {
		d := descs[p]
		spec := p.Spec()
		out = append(out, PolicyInfo{
			Name:        p.String(),
			Aliases:     d.aliases,
			Description: d.desc,
			Spec:        spec.Partition.String() + "/" + spec.Quantum.String() + "/" + spec.Order.String(),
		})
	}
	return out
}

// PartitionPolicies lists the registered partition policies.
func PartitionPolicies() []PolicyInfo { return partitionKinds.info() }

// QuantumPolicies lists the registered quantum policies.
func QuantumPolicies() []PolicyInfo { return quantumKinds.info() }

// QueueOrders lists the registered queue orders.
func QueueOrders() []PolicyInfo { return orderKinds.info() }
