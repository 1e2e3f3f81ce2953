package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/accel"
	"repro/internal/fabric"
	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// This file is the unified resource-plane surface: one typed Acquire
// entry point over every resource the paper shares — remote memory
// (CRMA), swap (RDMA block device), accelerators and NICs — implemented
// by both the flat Cluster and the rack-scale HierCluster, so scenario
// code is written once and runs on either plane.

// Kind selects the resource class of a Request.
type Kind int

const (
	// Memory is an MN-brokered remote-memory borrow hot-plugged into the
	// recipient's address space (the Fig. 2 flow).
	Memory Kind = iota + 1
	// Swap is an MN-brokered donor region wrapped in the remote-swap
	// block device (§5.2.1), to be mounted under a Paged backend.
	Swap
	// Accel is an MN-brokered remote accelerator attachment (§5.2.2).
	// The request must carry WithClient; WithDevice selects the donor
	// mailbox.
	Accel
	// NIC is an MN-brokered remote NIC attachment (§5.2.3).
	NIC
)

// String names the kind.
func (k Kind) String() string {
	if name, ok := kindNames[k]; ok {
		return name
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// kindNames maps every valid kind onto its String form; it is the
// single source the JSON codec round-trips through.
var kindNames = map[Kind]string{
	Memory: "memory", Swap: "swap", Accel: "accelerator", NIC: "nic",
}

// MarshalJSON serializes the kind as its String name, so wire consumers
// (the venice-serve SSE stream) never see a bare enum int whose value
// could drift when kinds are added.
func (k Kind) MarshalJSON() ([]byte, error) {
	name, ok := kindNames[k]
	if !ok {
		return nil, fmt.Errorf("core: cannot marshal unknown kind %d", int(k))
	}
	return []byte(`"` + name + `"`), nil
}

// UnmarshalJSON parses the String form MarshalJSON writes.
func (k *Kind) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("core: kind must be a JSON string, got %s", b)
	}
	name := string(b[1 : len(b)-1])
	for kk, nm := range kindNames {
		if nm == name {
			*k = kk
			return nil
		}
	}
	return fmt.Errorf("core: unknown kind %q", name)
}

// RetryPolicy shapes WithRetry: how many times an Acquire is attempted
// and how long to back off between attempts. Only transient failures
// (no donor available, MN timeout) are retried; request validation
// errors fail immediately.
type RetryPolicy struct {
	// Attempts is the total number of tries (values < 1 mean one).
	Attempts int
	// Backoff is the virtual-time sleep before each re-attempt.
	Backoff sim.Dur
	// Factor scales Backoff after each re-attempt when > 1 (exponential
	// backoff); values <= 1 keep the schedule flat.
	Factor float64
}

// Request names one resource acquisition: what kind, for which node,
// how much, plus functional options. Build it with NewRequest (or a
// struct literal refined by With).
type Request struct {
	// Kind is the resource class.
	Kind Kind
	// On is the recipient node the resource is acquired for.
	On *node.Node
	// Size is the lease size in bytes for memory kinds; device kinds
	// (Accel, NIC) lease one unit and ignore it.
	Size uint64

	// Option-carried fields (see With*).
	scope     monitor.AllocScope
	device    int
	hasDevice bool
	client    *accel.Client
	timeout   sim.Dur
	retry     RetryPolicy

	// tags are what every hop of a brokered grant forwards and its RAT
	// row keeps: the options' latency class and tenant, and the lease
	// trace id Acquire mints before the first attempt, which every event
	// of the resulting lease carries.
	tags monitor.Tags
}

// Option refines a Request: a value carrying the fields one With*
// option sets, which With copies onto the request. Options allocate
// nothing, and neither does a request built from them.
type Option struct {
	sets optField
	// v holds the option's value in the field of a Request it sets.
	v Request
}

// optField names the Request field (or fields) an Option sets.
type optField uint8

const (
	optScope optField = iota + 1
	optDevice
	optTimeout
	optRetry
	optClient
	optTenant
	optLatency
)

// NewRequest builds a Request for kind on behalf of node on, applying
// opts.
func NewRequest(kind Kind, on *node.Node, size uint64, opts ...Option) Request {
	r := Request{Kind: kind, On: on, Size: size}
	return r.With(opts...)
}

// With returns a copy of the request with opts applied, in order.
func (r Request) With(opts ...Option) Request {
	for _, o := range opts {
		switch o.sets {
		case optScope:
			r.scope = o.v.scope
		case optDevice:
			r.device, r.hasDevice = o.v.device, true
		case optTimeout:
			r.timeout = o.v.timeout
		case optRetry:
			r.retry = o.v.retry
		case optClient:
			r.client = o.v.client
		case optTenant:
			r.tags.Tenant, r.tags.Class = o.v.tags.Tenant, o.v.tags.Class
		case optLatency:
			r.tags.Latency = true
		}
	}
	return r
}

// WithScope pins an MN-brokered request's placement (rack-local,
// remote-rack, or anywhere) on a hierarchical plane — memory and device
// kinds alike. Flat planes have no racks, so any explicit scope other
// than ScopeAny is a validation error there.
func WithScope(scope monitor.AllocScope) Option {
	return Option{sets: optScope, v: Request{scope: scope}}
}

// WithDevice selects the donor-side device id — the accelerator mailbox
// to attach (Accel only; the default is mailbox 0).
func WithDevice(id int) Option {
	return Option{sets: optDevice, v: Request{device: id}}
}

// WithTimeout bounds the Monitor Node round trip: an unreachable or
// wedged MN fails the acquire after d of virtual time instead of
// parking the requester forever. The zero default waits indefinitely.
func WithTimeout(d sim.Dur) Option {
	return Option{sets: optTimeout, v: Request{timeout: d}}
}

// WithRetry re-attempts transient acquisition failures (no donor, MN
// timeout) on the given schedule.
func WithRetry(policy RetryPolicy) Option {
	return Option{sets: optRetry, v: Request{retry: policy}}
}

// WithClient supplies the accelerator library client an Accel request
// attaches through.
func WithClient(c *accel.Client) Option {
	return Option{sets: optClient, v: Request{client: c}}
}

// WithTenant tags an MN-brokered request with the owning tenant's
// identity and SLO class. On a plane configured with an admission
// policy (Config.Admission), the MN gates class-tagged grants under
// pressure — admit, degrade to a smaller window, queue for a bounded
// wait, or reject with ErrAdmissionRejected — and may revoke
// Preemptible-class leases to make room for a higher class. Untagged
// requests (the zero tenancy.ClassNone) bypass admission entirely, so
// pre-tenancy scenarios are byte-identical.
func WithTenant(id uint64, class tenancy.Class) Option {
	return Option{sets: optTenant, v: Request{tags: monitor.Tags{Tenant: id, Class: class}}}
}

// WithLatencySensitive marks a memory or swap lease's traffic
// latency-sensitive: the Monitor Node's migration loop (when running)
// relieves the lease's path by moving bulk leases away from its hot
// links, and never retargets the lease itself — a retarget-and-replay
// pause is exactly what the class forbids. Placement is unchanged; the
// class only steers migration.
func WithLatencySensitive() Option { return Option{sets: optLatency} }

// Acquire failure classes, surfaced with errors.Is through whatever
// context the error carries.
var (
	// ErrBadRequest marks a request that can never succeed as written
	// (unknown kind, zero size, an option its kind does not take).
	// Never retried.
	ErrBadRequest = errors.New("invalid request")
	// ErrUnavailable marks a transient placement failure: no live donor
	// (or donor rack) could back the request right now. Retryable.
	ErrUnavailable = errors.New("resource unavailable")
	// ErrTimeout marks an MN round trip that outran WithTimeout.
	// Retryable.
	ErrTimeout = errors.New("monitor call timed out")
	// ErrAdmissionRejected marks a class-tagged request the MN's
	// admission controller turned away: the class is over its budget and
	// neither queueing, degrading, nor preemption could make room. Not
	// retried by WithRetry — the caller owns its backoff (the verdict is
	// policy, not a transient race; see tenancy.Backoff).
	ErrAdmissionRejected = errors.New("admission rejected")
)

// validate rejects requests that can never succeed. hier tells whether
// the plane has racks (and so accepts placement scopes).
func (r *Request) validate(hier bool) error {
	if r.On == nil {
		return fmt.Errorf("%w: no recipient node", ErrBadRequest)
	}
	switch r.Kind {
	case Memory, Swap:
		if r.Size == 0 {
			return fmt.Errorf("%w: zero-size %s request", ErrBadRequest, r.Kind)
		}
	case Accel:
		if r.client == nil {
			return fmt.Errorf("%w: accelerator request needs WithClient", ErrBadRequest)
		}
		if r.device < 0 {
			return fmt.Errorf("%w: negative device id %d", ErrBadRequest, r.device)
		}
	case NIC:
		// Nothing kind-specific beyond the shared option checks below.
	default:
		return fmt.Errorf("%w: unknown kind %s", ErrBadRequest, r.Kind)
	}
	// The mailbox and client options shape accelerator attachments
	// only.
	if r.Kind != Accel {
		if r.hasDevice {
			return fmt.Errorf("%w: device id on a %s request", ErrBadRequest, r.Kind)
		}
		if r.client != nil {
			return fmt.Errorf("%w: accelerator client on a %s request", ErrBadRequest, r.Kind)
		}
	}
	// Placement scopes steer the MN's donor election — the memory walk
	// and the device walk both consult them.
	if !hier && r.scope != monitor.ScopeAny {
		return fmt.Errorf("%w: placement scope on a flat plane (no racks)", ErrBadRequest)
	}
	if r.tags.Latency && r.Kind != Memory && r.Kind != Swap {
		// The traffic class steers the MN's migration loop, which only
		// manages memory rows.
		return fmt.Errorf("%w: latency-sensitive class on a %s request", ErrBadRequest, r.Kind)
	}
	if r.tags.Class >= tenancy.NumClasses {
		return fmt.Errorf("%w: unknown tenant class %d", ErrBadRequest, uint8(r.tags.Class))
	}
	return nil
}

// Lease is the unified view of a live resource attachment — what every
// concrete lease (MemoryLease, SwapLease, AccelLease, NICLease)
// satisfies. Type-assert to the concrete lease for kind-specific
// surfaces (a memory window's base, a swap device, an accelerator
// handle, a VNIC).
type Lease interface {
	// Release returns the resource to its donor and clears its
	// allocation row.
	Release(p *sim.Proc)
	// Kind reports the resource class this lease was acquired as.
	Kind() Kind
	// Donor reports the donor node as of the grant. Recovery may move a
	// memory lease's backing afterwards; the recipient-side window keeps
	// working either way (the agent retargets it transparently).
	Donor() fabric.NodeID
	// Window reports the recipient-side address window (base, size).
	// Leases with no recipient window — swap before Mount, devices —
	// report base 0 (and, for devices, size 0).
	Window() (base, size uint64)
	// Trace reports the lease's trace id (minted when its Acquire
	// started): the key every lifecycle event of this lease carries on
	// the plane's Observe stream, and the span-chain handle
	// observability layers index by.
	Trace() uint64
}

// Plane is the single acquisition surface both cluster shapes
// implement: request any shareable resource with Acquire, batch with
// AcquireAll, and watch every lease's lifecycle with Observe.
type Plane interface {
	// Acquire obtains one resource described by req, blocking the
	// calling process for the grant flow's virtual time.
	Acquire(p *sim.Proc, req Request) (Lease, error)
	// AcquireAll grants every request or none: on the first failure the
	// leases already granted are released (in reverse order) before the
	// error returns.
	AcquireAll(p *sim.Proc, reqs ...Request) ([]Lease, error)
	// Observe registers fn for lease-lifecycle events (granted,
	// released, revoked, failed-over, acquire-failed) and returns its
	// cancel. Observers run synchronously and cost no virtual time.
	Observe(fn Observer) (cancel func())
}

// EventType classifies a lease-lifecycle event.
type EventType int

const (
	// LeaseGranted fires when an Acquire completes.
	LeaseGranted EventType = iota
	// LeaseReleased fires when a lease is released voluntarily.
	LeaseReleased
	// LeaseRevoked fires when monitor recovery destroys a lease
	// involuntarily (dead recipient, or a dead donor with no surviving
	// replacement).
	LeaseRevoked
	// LeaseFailedOver fires when monitor recovery re-placed a lease's
	// backing onto a new donor (Donor is the new one, OldDonor the
	// failed one).
	LeaseFailedOver
	// LeaseAcquireFailed fires when an Acquire fails terminally: a
	// validation error (never retried), or a transient failure that
	// exhausted the request's retry schedule. Inside an AcquireAll
	// batch the failing request emits this alongside the released
	// events of its rolled-back predecessors; observers tracking
	// capacity rather than caller errors can filter on Err.
	LeaseAcquireFailed
	// LeaseMigrated fires when the MN's telemetry-driven migration loop
	// moved a lease's backing to a donor behind a cooler path (Donor is
	// the new one, OldDonor the still-healthy one it moved off of).
	LeaseMigrated
	// LeasePreempted fires when the MN's admission plane revoked a
	// Preemptible-class lease to make room for a higher class. The
	// window goes dead like a revocation, but the donor stayed healthy —
	// the victim is expected to re-acquire with backoff once pressure
	// relents.
	LeasePreempted
)

// eventTypeNames maps every event type onto its String form; it is the
// single source the JSON codec round-trips through.
var eventTypeNames = map[EventType]string{
	LeaseGranted: "granted", LeaseReleased: "released", LeaseRevoked: "revoked",
	LeaseFailedOver: "failed-over", LeaseAcquireFailed: "acquire-failed",
	LeaseMigrated: "migrated", LeasePreempted: "preempted",
}

// String names the event type.
func (t EventType) String() string {
	if name, ok := eventTypeNames[t]; ok {
		return name
	}
	return "unknown"
}

// MarshalJSON serializes the event type as its String name — the stable
// wire form the SSE stream and trace store expose (a bare enum int
// would silently renumber if types were ever reordered).
func (t EventType) MarshalJSON() ([]byte, error) {
	name, ok := eventTypeNames[t]
	if !ok {
		return nil, fmt.Errorf("core: cannot marshal unknown event type %d", int(t))
	}
	return []byte(`"` + name + `"`), nil
}

// UnmarshalJSON parses the String form MarshalJSON writes.
func (t *EventType) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("core: event type must be a JSON string, got %s", b)
	}
	name := string(b[1 : len(b)-1])
	for tt, nm := range eventTypeNames {
		if nm == name {
			*t = tt
			return nil
		}
	}
	return fmt.Errorf("core: unknown event type %q", name)
}

// Event is one lease-lifecycle transition on a plane. The JSON form is
// stable: enums marshal as their String names and field keys are the
// snake_case tags below — the contract venice-serve's /events stream
// and /trace spans are published under.
type Event struct {
	Type EventType `json:"type"`
	// Kind is the resource class. Events forwarded from monitor
	// recovery (revoked, failed-over) cannot tell Memory from Swap —
	// the MN accounts both as memory rows — and report Memory for both.
	Kind Kind     `json:"kind"`
	At   sim.Time `json:"at_ns"`
	// Trace is the lease's trace id, minted when its Acquire started and
	// carried by every later transition of the same lease (through the
	// MN's allocation row), so one lease's
	// acquire→grant→migrate→failover→release history is a queryable span
	// chain. 0 only for events predating the id (never on this surface).
	Trace uint64 `json:"trace"`
	// Recipient and Donor identify the lease's endpoints; for
	// failed-over events Donor is the new donor and OldDonor the one it
	// replaced.
	Recipient fabric.NodeID `json:"recipient"`
	Donor     fabric.NodeID `json:"donor"`
	OldDonor  fabric.NodeID `json:"old_donor,omitempty"`
	// Size is the lease size in bytes (device leases: 1).
	Size uint64 `json:"size"`
	// Window is the recipient-side window base, when the lease has one.
	Window uint64 `json:"window,omitempty"`
	// Tenant and Class identify the owning tenant for class-tagged
	// leases (WithTenant); both are omitted for untagged ones, keeping
	// the pre-tenancy wire form byte-identical.
	Tenant uint64        `json:"tenant,omitempty"`
	Class  tenancy.Class `json:"class,omitempty"`
	// Err carries the failure for acquire-failed events.
	Err string `json:"err,omitempty"`
}

// Observer consumes plane events.
type Observer func(Event)

// eventHub fans plane events out to registered observers. The list is
// copy-on-write: observe and cancel install a fresh slice, and emit
// walks the slice it loaded, so an observer cancelling itself (or
// another observer) mid-delivery — or an out-of-band goroutine such as
// an HTTP server tearing a subscriber down — never races the iteration.
// A cancel that runs concurrently with an in-flight emit may still see
// that one event; it never sees a later one.
type eventHub struct {
	mu  sync.Mutex
	obs []*Observer

	// lastTrace is the plane's trace-id mint (see nextTrace).
	lastTrace atomic.Uint64
}

// nextTrace mints a fresh lease trace id. Ids are plane-local, start at
// 1, and cost no virtual time.
func (h *eventHub) nextTrace() uint64 { return h.lastTrace.Add(1) }

// observe registers fn and returns its cancel, which takes fn's entry
// off the list.
func (h *eventHub) observe(fn Observer) (cancel func()) {
	entry := &fn
	h.mu.Lock()
	defer h.mu.Unlock()
	h.obs = append(slices.Clip(h.obs), entry)
	return func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if i := slices.Index(h.obs, entry); i >= 0 {
			h.obs = slices.Delete(slices.Clone(h.obs), i, i+1)
		}
	}
}

// emit delivers ev to every live observer in registration order.
func (h *eventHub) emit(ev Event) {
	h.mu.Lock()
	obs := h.obs
	h.mu.Unlock()
	for _, fn := range obs {
		(*fn)(ev)
	}
}

// forwardRecovery is the flat MN's recovery-event sink: it carries the
// MN's revocations, failovers, migrations and preemptions onto the
// plane's stream. Grants and frees the plane emits itself, at the
// Acquire/Release call sites, where the true kind (memory vs swap) is
// still known.
func (h *eventHub) forwardRecovery(ev monitor.LeaseEvent) {
	var t EventType
	switch ev.Type {
	case monitor.LeaseRevoked:
		t = LeaseRevoked
	case monitor.LeaseFailedOver:
		t = LeaseFailedOver
	case monitor.LeaseMigrated:
		t = LeaseMigrated
	case monitor.LeasePreempted:
		t = LeasePreempted
	}
	h.emit(Event{
		Type:      t,
		Kind:      kindOfAlloc(ev.Alloc),
		At:        ev.At,
		Trace:     ev.Alloc.Trace,
		Recipient: ev.Alloc.Recipient,
		Donor:     ev.Alloc.Donor,
		OldDonor:  ev.OldDonor,
		Size:      ev.Alloc.Size,
		Window:    ev.Alloc.RecipientBase,
		Tenant:    ev.Alloc.Tenant,
		Class:     ev.Alloc.Class,
	})
}

// kindOfAlloc maps a monitor allocation row onto the plane's kinds.
func kindOfAlloc(a monitor.Allocation) Kind {
	switch a.Kind {
	case monitor.Memory:
		return Memory
	case monitor.DevNIC:
		return NIC
	default:
		return Accel
	}
}

// retryable reports whether err is worth re-attempting.
func retryable(err error) bool {
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrTimeout)
}
