// Package eg implements execution graphs: the partial-order representation
// of a concurrent program run that stateless model checking for weak memory
// models operates on. A graph consists of per-thread sequences of events
// (reads, writes, atomic updates, fences) together with a reads-from function
// (rf), a per-location coherence order (co), and syntactic dependency edges
// (address, data, control) used by hardware memory models.
package eg

import "fmt"

// Kind classifies events.
type Kind uint8

const (
	KInit   Kind = iota // initial write (one virtual event per location)
	KRead               // memory load
	KWrite              // memory store
	KUpdate             // atomic read-modify-write (successful CAS, FADD, XCHG)
	KFence              // memory barrier
)

func (k Kind) String() string {
	switch k {
	case KInit:
		return "init"
	case KRead:
		return "R"
	case KWrite:
		return "W"
	case KUpdate:
		return "U"
	case KFence:
		return "F"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsRead reports whether the event reads memory (loads and updates).
func (k Kind) IsRead() bool { return k == KRead || k == KUpdate }

// IsWrite reports whether the event writes memory (stores, updates, init).
func (k Kind) IsWrite() bool { return k == KWrite || k == KUpdate || k == KInit }

// FenceKind distinguishes barrier strengths, loosely mirroring hardware:
// a full barrier (x86 MFENCE / ARM DMB SY / POWER sync), a lightweight
// store-ordering barrier (POWER lwsync-like: orders everything except
// W→R), and a load-ordering barrier (ARM DMB LD / ctrl+isb-like: orders
// R→R and R→W).
type FenceKind uint8

const (
	FenceNone FenceKind = iota
	FenceFull
	FenceLW
	FenceLD
)

func (f FenceKind) String() string {
	switch f {
	case FenceNone:
		return "none"
	case FenceFull:
		return "full"
	case FenceLW:
		return "lw"
	case FenceLD:
		return "ld"
	}
	return fmt.Sprintf("FenceKind(%d)", uint8(f))
}

// Mode is a C11-style memory-order annotation on an access. Hardware
// models ignore modes (ordering comes from dependencies and fences); the
// language-level rc11 model is defined over them. ModePlain is the
// default and is treated as relaxed by rc11.
type Mode uint8

const (
	ModePlain  Mode = iota // unannotated (hardware) access; relaxed for rc11
	ModeRlx                // memory_order_relaxed
	ModeAcq                // memory_order_acquire (reads)
	ModeRel                // memory_order_release (writes)
	ModeAcqRel             // memory_order_acq_rel (updates)
	ModeSC                 // memory_order_seq_cst
)

func (m Mode) String() string {
	switch m {
	case ModePlain:
		return "plain"
	case ModeRlx:
		return "rlx"
	case ModeAcq:
		return "acq"
	case ModeRel:
		return "rel"
	case ModeAcqRel:
		return "acqrel"
	case ModeSC:
		return "sc"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Acquire reports whether the mode includes acquire semantics.
func (m Mode) Acquire() bool { return m == ModeAcq || m == ModeAcqRel || m == ModeSC }

// Release reports whether the mode includes release semantics.
func (m Mode) Release() bool { return m == ModeRel || m == ModeAcqRel || m == ModeSC }

// Loc identifies a shared memory location (an index into the program's
// location table).
type Loc int

// EvID names an event by thread and program-order index. Thread InitThread
// is reserved for the per-location initial writes, whose Index equals the
// location number. EvIDs are stable across graph restriction because
// restriction only ever removes po-suffixes.
type EvID struct {
	T int // thread, or InitThread
	I int // po index within thread, or location for init events
}

// InitThread is the pseudo-thread that owns the initial writes.
const InitThread = -1

// InitID returns the EvID of the initial write to loc.
func InitID(loc Loc) EvID { return EvID{T: InitThread, I: int(loc)} }

// IsInit reports whether the EvID names an initial write.
func (id EvID) IsInit() bool { return id.T == InitThread }

func (id EvID) String() string {
	if id.IsInit() {
		return fmt.Sprintf("init[x%d]", id.I)
	}
	return fmt.Sprintf("t%d:%d", id.T, id.I)
}

// Event is a node of an execution graph. Val is the value written for
// writes and updates (the value read by a read is determined by its rf
// edge). Deps lists the po-earlier same-thread *read* events this event
// syntactically depends on, split by dependency kind.
type Event struct {
	ID    EvID
	Kind  Kind
	Loc   Loc       // meaningful for KInit/KRead/KWrite/KUpdate
	Val   int64     // value written (KWrite/KUpdate/KInit)
	Fence FenceKind // meaningful for KFence
	Mode  Mode      // C11-style order annotation (rc11 model); ModePlain default
	Stamp int       // global addition order, assigned by the Graph

	// Excl marks an exclusive access: the read or update produced by a
	// CAS/RMW instruction. A *failed* CAS is a plain read in the graph,
	// but on x86-style machines the locked instruction still drains the
	// store buffer, so the store-buffer models treat Excl reads as
	// fencing.
	Excl bool

	// Dependency sets: EvIDs of same-thread earlier reads feeding this
	// event's address (Addr), stored value (Data), or the branch
	// conditions on its control path (Ctrl).
	Addr []EvID
	Data []EvID
	Ctrl []EvID

	// PC is the index of the generating instruction in its thread's code
	// (zero for init events). It is provenance, not identity: excluded
	// from Key and SameStaticEvent, so graphs built without it (the
	// axiomatic enumerator, hand-built tests) compare as before. The
	// static analyzer's CheckDeps sanitizer uses it to map dynamic
	// dependency events back to instructions.
	PC int
}

// SameStaticEvent reports whether two events are the same program action
// (ignoring Stamp and dependency slices' identity): used by the replayer to
// reconcile regenerated actions with kept graph events.
func SameStaticEvent(a, b Event) bool {
	if a.ID != b.ID || a.Kind != b.Kind || a.Loc != b.Loc || a.Fence != b.Fence || a.Mode != b.Mode {
		return false
	}
	// For writes/updates the written value is part of the action identity;
	// reads take their value from rf, so Val is irrelevant.
	if a.Kind.IsWrite() && a.Val != b.Val {
		return false
	}
	return sameIDs(a.Addr, b.Addr) && sameIDs(a.Data, b.Data) && sameIDs(a.Ctrl, b.Ctrl)
}

func sameIDs(a, b []EvID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (e Event) String() string {
	return e.StringNamed(func(l Loc) string { return fmt.Sprintf("x%d", l) })
}

// StringNamed renders the event with source-level location names.
func (e Event) StringNamed(locName func(Loc) string) string {
	switch e.Kind {
	case KInit:
		return fmt.Sprintf("%v: init %s=0", e.ID, locName(e.Loc))
	case KRead:
		return fmt.Sprintf("%v: R %s", e.ID, locName(e.Loc))
	case KWrite:
		return fmt.Sprintf("%v: W %s=%d", e.ID, locName(e.Loc), e.Val)
	case KUpdate:
		return fmt.Sprintf("%v: U %s=%d", e.ID, locName(e.Loc), e.Val)
	case KFence:
		return fmt.Sprintf("%v: F.%v", e.ID, e.Fence)
	}
	return fmt.Sprintf("%v: ?", e.ID)
}
