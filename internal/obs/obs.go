// Package obs is the unified observability layer: a lock-free event
// tracer (ring buffer + Chrome-trace exporter), a hardening-overhead
// profiler attributing dynamic instructions to master/shadow/check/tx
// categories per function and source line, and a minimal Prometheus
// text-exposition registry with HTTP debug endpoints.
//
// The package is always compiled in but strictly pay-for-what-you-use:
// every entry point tolerates a nil receiver, so the VM, the serving
// layer, and the campaign engine emit events unconditionally and the
// cost collapses to a nil check when no ring or profiler is attached.
// Nothing in here ever perturbs simulated state — attaching a tracer
// or profiler changes neither instruction counts nor program outputs.
package obs

// Kind identifies the type of a traced event.
type Kind uint8

// The event taxonomy. VM-domain events carry simulated cycles in
// Event.Time; wall-domain events carry nanoseconds from the ring's
// clock (see Ring.Now).
const (
	// KindTxBegin marks a hardware transaction starting on a core.
	KindTxBegin Kind = iota
	// KindTxCommit marks a successful transaction commit.
	KindTxCommit
	// KindTxAbort marks a transaction abort; Label holds the abort
	// cause (conflict, capacity, explicit, ...), A the retry count so
	// far on that core.
	KindTxAbort
	// KindCheckDiverge records an ILR check observing a master/shadow
	// mismatch: A is the master value, B the shadow value, Label the
	// site ("func/block").
	KindCheckDiverge
	// KindDetect records control reaching an ILR detection handler
	// (ilr.fail), i.e. a fault caught outside a transaction.
	KindDetect
	// KindFault records a fault-injection site firing; Label is the
	// site ("func/block op"), A the dynamic instruction index.
	KindFault
	// KindRetry records the serving layer (A = attempt number) or the
	// VM transaction runtime retrying after a fault or abort.
	KindRetry
	// KindQuarantine records an instance being quarantined and
	// rebuilt; A is the instance generation.
	KindQuarantine
	// KindRequest records a request entering the serving layer;
	// A is the request id.
	KindRequest
	// KindResponse records a request completing; A is the request id,
	// B the latency in nanoseconds.
	KindResponse
	// KindVerifyReject records host-side verification rejecting a
	// response before delivery.
	KindVerifyReject
	// KindChaos records a chaos-layer action (kill/hang/storm);
	// Label names the action.
	KindChaos
	// KindCampaignRun records one fault-injection campaign run
	// completing; Label is "model/outcome", A the run index, B the
	// outcome.
	KindCampaignRun
	// KindVoteMask records the cluster voter masking a replica reply
	// that disagreed with the majority — one detected corruption that
	// was never delivered. A is the shard, B the masked value, Label
	// the replica's node id.
	KindVoteMask
	// KindFailover records a shard's acting primary moving to a backup
	// replica; A is the shard, Label the new primary's node id.
	KindFailover
	// KindNodeState records a cluster node state transition; Label is
	// the new state ("healthy", "quarantined", "rebuilding", "dead"),
	// A the node's generation.
	KindNodeState
	// KindVoteCorrect records a TMR majority vote correcting a
	// diverging replica in place; A is the majority value, B the
	// outlier value, Label the voting site.
	KindVoteCorrect
	// KindDispatch records the cluster router fanning a request out to
	// a shard's replica set; A is the shard, Label "read" or "write".
	KindDispatch
	// KindVote records the cluster voter electing a majority reply for
	// a read; A is the shard, B the winning value.
	KindVote
	// KindExec records a request entering a VM run on a pool instance;
	// A is the request id, Actor the instance.
	KindExec

	numKinds
)

var kindNames = [numKinds]string{
	KindTxBegin:      "tx.begin",
	KindTxCommit:     "tx.commit",
	KindTxAbort:      "tx.abort",
	KindCheckDiverge: "check.diverge",
	KindDetect:       "ilr.detect",
	KindFault:        "fault.inject",
	KindRetry:        "retry",
	KindQuarantine:   "quarantine",
	KindRequest:      "request",
	KindResponse:     "response",
	KindVerifyReject: "verify.reject",
	KindChaos:        "chaos",
	KindCampaignRun:  "campaign.run",
	KindVoteMask:     "vote.mask",
	KindFailover:     "failover",
	KindNodeState:    "node.state",
	KindVoteCorrect:  "vote.correct",
	KindDispatch:     "dispatch",
	KindVote:         "vote",
	KindExec:         "exec",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString is the inverse of Kind.String; ok is false for
// unknown names.
func KindFromString(s string) (Kind, bool) {
	for k, n := range kindNames {
		if n == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// Domain says which clock an event's Time belongs to.
type Domain uint8

const (
	// DomainVM events carry simulated cycles.
	DomainVM Domain = iota
	// DomainWall events carry nanoseconds from Ring.Now.
	DomainWall
)

// Event is one traced occurrence. Label and LabelID are alternatives:
// emitters on hot paths pre-intern their label with Ring.Intern and
// pass the id; occasional emitters just set Label.
type Event struct {
	// Seq is the global emission order, assigned by the ring.
	Seq    uint64
	Kind   Kind
	Domain Domain
	// Actor is the core (VM domain) or worker/instance (wall domain)
	// the event belongs to.
	Actor int32
	// Time is cycles (DomainVM) or nanoseconds (DomainWall).
	Time uint64
	// A and B are kind-specific payloads (see the Kind constants).
	A, B uint64
	// TraceID correlates events belonging to one end-to-end request
	// across processes (router dispatch → node exec → vote). Zero
	// means untraced.
	TraceID uint64
	// Label is a kind-specific string payload, interned on emission.
	Label string
	// LabelID is a pre-interned label (from Ring.Intern); used when
	// Label is empty.
	LabelID uint64
}

// SplitMix64 is the standard splitmix64 step: a cheap, well-spread
// bijection on 64-bit words. It is the repo's one seed/id mixer —
// trace ids are minted with it, campaign and scenario run seeds are
// derived with it, and the cluster ring hashes keys to shards with it
// (so its constants are pinned by those goldens).
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
