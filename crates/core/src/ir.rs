//! The two-mode protocol as **data**: a guarded-action intermediate
//! representation (IR) of every §2.2 transition.
//!
//! The paper defines the protocol once — six line states, DW/GR modes,
//! ownership migration, replacement, mode switches — but an executable
//! reproduction tends to re-state it per consumer: once in the simulator's
//! hot paths, once in the model checker's successor function, once in the
//! analytic model. This module is the single source for the first two: a
//! table of [`Rule`]s, each a conjunction of [`Guard`] predicates over a
//! [`RuleCtx`] snapshot plus an ordered list of [`Step`] effects. The
//! table *is* the protocol engine: every [`crate::System`] transaction is
//! interpreted from it, so the bounded model checker, which explores
//! machines through the same calls, derives its successor function from
//! the very same rules — the pinned visited-state counts are properties
//! of this spec (the approach of guarded-action protocol languages; see
//! PAPERS.md on Meunier et al.'s GAL).
//!
//! # Shape of the IR
//!
//! * **Guards** are pure predicates over the decision-relevant protocol
//!   state at transaction start: the requester's tag-lookup class, whether
//!   the block store names an owner, the owner's current mode, the
//!   OWNER-hint status. Rule selection is first-match over each table
//!   ([`select`]), and the tables are written so exactly one rule matches
//!   any reachable context (the exhaustiveness tests below). The
//!   `Dispatch` index memoizes that selection for the access tables and
//!   tells the engine which context fields each lookup class's rules
//!   read, so a hit never probes the owner or the hint.
//! * **Message emissions** are explicit [`Step::Send`] entries carrying
//!   the message kind, the logical endpoints, and a [`SizeClass`] — the
//!   §2.3 payload-size annotation. Link-by-link costs follow from the
//!   omega-network route between the resolved endpoints, exactly as the
//!   paper charges them; multicast steps ([`Step::UpdateCast`],
//!   [`Step::AnnounceCast`], [`Step::InvalidateCast`], …) carry their kind
//!   and size class the same way and bill through the §3 multicast
//!   schemes.
//! * **State effects** are named micro-operations (probe the owner,
//!   install a line, demote the old owner, …) whose operational semantics
//!   live in the interpreter (`system/ir_exec.rs`). They mutate cache
//!   lines, the block store and memory in listed order; the golden
//!   fixture in `tests/engine_golden.rs` pins the resulting counters,
//!   per-link charges, trace events and fingerprints.
//!
//! Five tables cover the protocol: [`READ_RULES`], [`WRITE_RULES`],
//! [`SET_MODE_RULES`], [`REPLACE_RULES`] (§2.2 case 5, reached from the
//! install steps when a way must be freed) and [`MODE_RULES`] (§2.2 cases
//! 6/7, reached from [`Step::SwitchMode`] and from the §5 adaptive
//! policy). Fault injection is deliberately *not* in the IR: faults are
//! pre-flight admission control around the protocol (docs/ROBUSTNESS.md),
//! not part of the paper's state machine.

use crate::msg::MsgKind;
use crate::state::Mode;

/// The requester's tag-lookup outcome — the primary dispatch axis of
/// §2.2 (Table 1's V/O/DW bits collapse to these four classes plus the
/// owner-mode guards).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupClass {
    /// No entry for the block at all (cold).
    Missing,
    /// An entry exists but V = 0 (invalid entry, OWNER hint may help).
    InvalidEntry,
    /// Valid unowned copy (DW mode sharer).
    UnOwnedHit,
    /// Valid and owned — the requester is the block's owner.
    OwnedHit,
}

impl LookupClass {
    /// Every class, in dispatch-index order.
    pub const ALL: [LookupClass; 4] = [
        LookupClass::Missing,
        LookupClass::InvalidEntry,
        LookupClass::UnOwnedHit,
        LookupClass::OwnedHit,
    ];

    /// A valid copy was found (owned or not).
    #[must_use]
    pub fn is_hit(self) -> bool {
        matches!(self, LookupClass::UnOwnedHit | LookupClass::OwnedHit)
    }
}

/// Decision-relevant victim state for the replacement table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VictimCtx {
    /// The victim line is owned by the replacing cache.
    pub owned: bool,
    /// The present vector names the replacer alone.
    pub exclusive: bool,
    /// The M bit — memory is stale.
    pub modified: bool,
    /// The victim line's mode.
    pub mode: Mode,
}

/// Decision-relevant state for the mode-switch table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModeCtx {
    /// The block's mode at its owner before the directive.
    pub current: Mode,
    /// The requested mode.
    pub target: Mode,
    /// The owner's present vector names caches besides the owner.
    pub other_copies: bool,
}

/// Everything a [`Guard`] may test: a read-only snapshot of the protocol
/// state that determines which §2.2 case applies. Fields irrelevant to
/// the transaction kind stay `None`/`false`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RuleCtx {
    /// Requester lookup class (read/write/set-mode tables).
    pub lookup: Option<LookupClass>,
    /// The block store names an owner.
    pub block_owned: bool,
    /// Mode at the block-store owner's line, when one exists.
    pub owner_mode: Option<Mode>,
    /// The invalid entry carries an OWNER hint and owner-bypass is on.
    pub usable_hint: bool,
    /// The hint target currently owns the block (fresh hint).
    pub hint_owns: bool,
    /// Mode at the hint target, when it owns.
    pub hint_mode: Option<Mode>,
    /// Victim state (replacement table only).
    pub victim: Option<VictimCtx>,
    /// Mode-switch state (mode table only).
    pub mode_switch: Option<ModeCtx>,
}

/// A single predicate over [`RuleCtx`]. A rule fires when *all* its
/// guards hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Guard {
    /// Lookup is a valid hit (owned or unowned).
    Hit,
    /// Lookup found no entry.
    Missing,
    /// Lookup found an invalid entry.
    InvalidEntry,
    /// Lookup missed (no entry, or an invalid one).
    Miss,
    /// Lookup hit the requester's own owned line.
    OwnedHit,
    /// Lookup hit a valid unowned copy.
    UnOwnedHit,
    /// The block store names an owner.
    BlockOwned,
    /// The block store names no owner (memory is current).
    BlockUnowned,
    /// The block-store owner's line is in distributed-write mode.
    OwnerIsDw,
    /// The block-store owner's line is in global-read mode.
    OwnerIsGr,
    /// The invalid entry has an OWNER hint and bypass is enabled.
    UsableHint,
    /// No usable OWNER hint (absent, or bypass disabled).
    NoUsableHint,
    /// The OWNER hint is fresh: the hinted cache owns the block.
    HintOwns,
    /// The OWNER hint is stale: the hinted cache does not own the block.
    HintStale,
    /// The hint target's line is in distributed-write mode.
    HintIsDw,
    /// The hint target's line is in global-read mode.
    HintIsGr,
    /// Replacement: the victim line is owned.
    VictimOwned,
    /// Replacement: the victim is an unowned or invalid entry.
    VictimCopy,
    /// Replacement: the owned victim's present vector is the replacer
    /// alone.
    Exclusive,
    /// Replacement: other caches appear in the victim's present vector.
    NotExclusive,
    /// Replacement: the victim's M bit is set (memory is stale).
    Dirty,
    /// Replacement: the victim is unmodified.
    Clean,
    /// Replacement: the owned victim is in distributed-write mode.
    VictimDw,
    /// Replacement: the owned victim is in global-read mode.
    VictimGr,
    /// Mode switch: the block is already in the requested mode.
    SameMode,
    /// Mode switch: the requested mode differs from the current one.
    ModeChanges,
    /// Mode switch: the directive requests distributed write.
    ToDw,
    /// Mode switch: the directive requests global read.
    ToGr,
    /// Mode switch: the owner holds the only copy.
    LoneCopy,
    /// Mode switch: other caches appear in the present vector.
    SharedCopies,
}

impl Guard {
    /// Whether this predicate reads `block_owned` or `owner_mode`.
    fn reads_owner(&self) -> bool {
        matches!(
            self,
            Guard::BlockOwned | Guard::BlockUnowned | Guard::OwnerIsDw | Guard::OwnerIsGr
        )
    }

    /// Whether this predicate reads `usable_hint`, `hint_owns` or
    /// `hint_mode`.
    fn reads_hint(&self) -> bool {
        matches!(
            self,
            Guard::UsableHint
                | Guard::NoUsableHint
                | Guard::HintOwns
                | Guard::HintStale
                | Guard::HintIsDw
                | Guard::HintIsGr
        )
    }

    /// Whether this predicate holds for `ctx`.
    #[must_use]
    pub fn holds(self, ctx: &RuleCtx) -> bool {
        use LookupClass as L;
        match self {
            Guard::Hit => matches!(ctx.lookup, Some(L::UnOwnedHit | L::OwnedHit)),
            Guard::Missing => ctx.lookup == Some(L::Missing),
            Guard::InvalidEntry => ctx.lookup == Some(L::InvalidEntry),
            Guard::Miss => matches!(ctx.lookup, Some(L::Missing | L::InvalidEntry)),
            Guard::OwnedHit => ctx.lookup == Some(L::OwnedHit),
            Guard::UnOwnedHit => ctx.lookup == Some(L::UnOwnedHit),
            Guard::BlockOwned => ctx.block_owned,
            Guard::BlockUnowned => !ctx.block_owned,
            Guard::OwnerIsDw => ctx.owner_mode == Some(Mode::DistributedWrite),
            Guard::OwnerIsGr => ctx.owner_mode == Some(Mode::GlobalRead),
            Guard::UsableHint => ctx.usable_hint,
            Guard::NoUsableHint => !ctx.usable_hint,
            Guard::HintOwns => ctx.hint_owns,
            Guard::HintStale => ctx.usable_hint && !ctx.hint_owns,
            Guard::HintIsDw => ctx.hint_mode == Some(Mode::DistributedWrite),
            Guard::HintIsGr => ctx.hint_mode == Some(Mode::GlobalRead),
            Guard::VictimOwned => ctx.victim.is_some_and(|v| v.owned),
            Guard::VictimCopy => ctx.victim.is_some_and(|v| !v.owned),
            Guard::Exclusive => ctx.victim.is_some_and(|v| v.exclusive),
            Guard::NotExclusive => ctx.victim.is_some_and(|v| !v.exclusive),
            Guard::Dirty => ctx.victim.is_some_and(|v| v.modified),
            Guard::Clean => ctx.victim.is_some_and(|v| !v.modified),
            Guard::VictimDw => ctx.victim.is_some_and(|v| v.mode == Mode::DistributedWrite),
            Guard::VictimGr => ctx.victim.is_some_and(|v| v.mode == Mode::GlobalRead),
            Guard::SameMode => ctx.mode_switch.is_some_and(|m| m.current == m.target),
            Guard::ModeChanges => ctx.mode_switch.is_some_and(|m| m.current != m.target),
            Guard::ToDw => ctx
                .mode_switch
                .is_some_and(|m| m.target == Mode::DistributedWrite),
            Guard::ToGr => ctx
                .mode_switch
                .is_some_and(|m| m.target == Mode::GlobalRead),
            Guard::LoneCopy => ctx.mode_switch.is_some_and(|m| !m.other_copies),
            Guard::SharedCopies => ctx.mode_switch.is_some_and(|m| m.other_copies),
        }
    }
}

/// A logical message endpoint, resolved to a network port by the
/// interpreter when the rule runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ep {
    /// The cache issuing the transaction (or replacing the victim).
    Requester,
    /// The memory module the block interleaves to.
    Home,
    /// The block-store owner at transaction start (a rule naming it is
    /// guarded on the owner, which is what makes the engine probe it).
    Owner,
    /// The cache named by the requester's OWNER hint (likewise guarded).
    Hint,
    /// The handoff candidate that accepted ownership.
    Candidate,
}

/// The §2.3 message-size classes — the IR's link-cost annotations. Each
/// resolves against [`crate::SystemConfig`]'s sizing model; the per-link
/// charge is this payload routed over the omega network between the
/// emission's endpoints (unicast) or through the configured §3 multicast
/// scheme (cast steps).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SizeClass {
    /// A bare request header.
    Request,
    /// A full block transfer.
    BlockTransfer,
    /// One datum (GR remote read service to a known requester entry).
    Datum,
    /// One datum plus the owner id (GR service installing a fresh hint).
    DatumPlusOwnerId,
    /// A distributed-write update (datum + addressing).
    Update,
    /// An invalidation notice.
    Invalidate,
    /// A new-owner announcement (log₂N owner id).
    NewOwnerId,
    /// Ownership state without data (present vector + bits).
    StateTransfer,
    /// Ownership state plus the block contents.
    BlockAndState,
    /// A single-bit acknowledgement / NAK.
    Ack,
}

/// One effect of a fired rule. `Send`/cast steps emit (and bill) traffic;
/// the rest are the named state micro-operations the interpreter applies
/// in listed order. See `system/ir_exec.rs` for the operational
/// semantics of each, and docs/PROTOCOL.md for the prose mapping back to
/// §2.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Increment a named protocol counter.
    Count(&'static str),
    /// Emit the structured miss event (tracing only).
    Miss {
        /// Write miss (vs read miss).
        write: bool,
        /// Cold miss: no entry at all (vs an invalid entry).
        cold: bool,
    },
    /// Emit one unicast message and bill its route link-by-link.
    Send {
        /// Message kind (drives the per-kind bit counters).
        kind: MsgKind,
        /// Sending endpoint.
        from: Ep,
        /// Receiving endpoint.
        to: Ep,
        /// Payload-size annotation (§2.3).
        size: SizeClass,
    },
    /// Serve a read hit from the requester's own line.
    ReadHitWord,
    /// Copy the block out of the memory module (no traffic; the reply is
    /// a separate `Send`).
    FetchMem,
    /// Install the fetched block at the requester as the exclusive owner
    /// in the policy's initial mode, and point the block store at it.
    InstallOwnedExclusive,
    /// DW service probe at the serving owner: register the requester in
    /// the present vector and clone the block for the copy reply.
    OwnerProbeDw(Ep),
    /// GR service probe at the serving owner: register the requester and
    /// count the remote read in the §5 window (one datum will move).
    OwnerProbeGr(Ep),
    /// Install the cloned block at the requester as an unowned copy.
    InstallUnownedCopy,
    /// Refresh the OWNER hint on the requester's existing invalid entry.
    SetHintAtReq,
    /// Install a fresh invalid entry at the requester holding only the
    /// OWNER hint.
    InstallInvalidHint,
    /// Record the serving owner's state change in the transaction log.
    NoteServeOwner,
    /// Log the stale-hint redirect note.
    StaleHintNote,
    /// Point the block store at the requester (ownership moves).
    SetOwnerReq,
    /// Register the requester in the old owner's present vector (write
    /// miss on an owned block, before the transfer probe).
    RegisterReqAtOld,
    /// Begin an ownership transfer: count it, trace it, and capture the
    /// old owner's mode/M-bit/data/present vector.
    XferProbe,
    /// Demote the old owner's copy to UnOwned (DW transfer).
    DemoteOldDw,
    /// Announce the new owner to the other invalid-entry holders (GR
    /// transfer), updating their hints.
    AnnounceCast,
    /// Invalidate the old owner's own copy (GR transfer).
    InvalidateOldGr,
    /// Install the owned line at the new owner.
    InstallXfer {
        /// The block contents crossed the network with the state (false:
        /// the requester's own valid copy is promoted in place).
        send_data: bool,
    },
    /// Apply the write at the owning requester (set word, M bit, snapshot
    /// the sharer set for the update cast).
    WriteAtOwner,
    /// §2.2 case 3(b): multicast [`MsgKind::UpdateWrite`] at
    /// [`SizeClass::Update`] to the other copy holders, when the block is
    /// in DW mode and copies exist.
    UpdateCast,
    /// Run the [`MODE_RULES`] table for the requested mode.
    SwitchMode,
    /// Write the dirty victim's block back to memory.
    MemWriteBackVictim,
    /// Clear the victim's block-store entry (memory becomes owner).
    ClearStoreVictim,
    /// Ask the victim's owner to clear the replacer's present flag.
    ClearPresenceAtOwner,
    /// §2.2 case 5(b) offer loop: offer ownership
    /// ([`MsgKind::OwnershipOffer`], [`SizeClass::Request`]) to present
    /// vector candidates until one acks ([`MsgKind::OfferAck`] /
    /// [`MsgKind::OfferNak`], [`SizeClass::Ack`]).
    HandoffOffers,
    /// Point the block store at the accepted handoff candidate.
    SetOwnerCand,
    /// Promote the candidate's valid copy to owner (DW handoff).
    PromoteCandDw,
    /// Promote the candidate's invalid entry to owner with the
    /// transferred data (GR handoff).
    PromoteCandGr,
    /// Announce the promoted candidate to the remaining invalid entries
    /// (GR handoff).
    AnnounceCastHandoff,
    /// §2.2 case 6: set DW mode; the present vector collapses to the
    /// owner alone.
    ModeToDw,
    /// §2.2 case 7: set GR mode; the present vector is retained (it now
    /// marks invalid-entry holders).
    ModeToGr,
    /// §2.2 case 7: multicast [`MsgKind::Invalidate`] at
    /// [`SizeClass::Invalidate`] to the other copy holders.
    InvalidateCast,
}

/// One guarded action: `name` for diagnostics, `when` the guard
/// conjunction, `steps` the ordered effects.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Stable diagnostic name (also the docs' reference key).
    pub name: &'static str,
    /// All guards must hold for the rule to fire.
    pub when: &'static [Guard],
    /// Effects, applied in order.
    pub steps: &'static [Step],
}

/// The whole protocol: one table per transaction kind. The default
/// instance is [`PROTOCOL_IR`]; tests may swap in a deliberately broken
/// table via [`crate::System::set_ir_table`] to prove the golden fixture
/// catches divergence.
#[derive(Clone, Copy, Debug)]
pub struct ProtocolIr {
    /// Rules for processor reads (§2.2 cases 1–2).
    pub read: &'static [Rule],
    /// Rules for processor writes (§2.2 cases 3–4).
    pub write: &'static [Rule],
    /// Rules for software mode directives (§2.2 cases 6–7 entry).
    pub set_mode: &'static [Rule],
    /// Rules for replacement (§2.2 case 5).
    pub replace: &'static [Rule],
    /// Rules for the in-place mode switch at the owner.
    pub mode: &'static [Rule],
}

/// First rule of `rules` whose guards all hold for `ctx` — the selection
/// semantics of every table (`Dispatch` memoizes it for the access
/// tables).
#[must_use]
pub fn select<'a>(rules: &'a [Rule], ctx: &RuleCtx) -> Option<&'a Rule> {
    rules.iter().find(|r| r.when.iter().all(|g| g.holds(ctx)))
}

use Ep::{Candidate, Hint, Home, Owner, Requester};
use Guard as G;
use MsgKind as K;
use SizeClass as Z;
use Step as S;

/// Shorthand for the ubiquitous unicast step.
macro_rules! send {
    ($kind:ident, $from:ident -> $to:ident, $size:ident) => {
        S::Send {
            kind: K::$kind,
            from: $from,
            to: $to,
            size: Z::$size,
        }
    };
}

/// Shorthand for the structured miss event, kept on one line.
macro_rules! miss {
    ($($field:ident: $value:literal),*) => {
        S::Miss { $($field: $value),* }
    };
}

/// Processor read (§2.2 cases 1 and 2): hit, cold miss, invalid-entry
/// miss with fresh/stale/no OWNER hint, each split by the serving
/// owner's mode.
pub static READ_RULES: &[Rule] = &[
    Rule {
        name: "read-hit",
        when: &[G::Hit],
        steps: &[S::Count("read_hit"), S::ReadHitWord],
    },
    Rule {
        name: "read-cold-unowned",
        when: &[G::Missing, G::BlockUnowned],
        steps: &[
            S::Count("read_miss_cold"),
            miss!(write: false, cold: true),
            send!(LoadReq, Requester -> Home, Request),
            S::FetchMem,
            send!(BlockReply, Home -> Requester, BlockTransfer),
            S::InstallOwnedExclusive,
        ],
    },
    Rule {
        name: "read-cold-owned-dw",
        when: &[G::Missing, G::BlockOwned, G::OwnerIsDw],
        steps: &[
            S::Count("read_miss_cold"),
            miss!(write: false, cold: true),
            send!(LoadReq, Requester -> Home, Request),
            send!(FwdLoad, Home -> Owner, Request),
            S::OwnerProbeDw(Owner),
            send!(BlockReply, Owner -> Requester, BlockTransfer),
            S::InstallUnownedCopy,
            S::NoteServeOwner,
        ],
    },
    Rule {
        name: "read-cold-owned-gr",
        when: &[G::Missing, G::BlockOwned, G::OwnerIsGr],
        steps: &[
            S::Count("read_miss_cold"),
            miss!(write: false, cold: true),
            send!(LoadReq, Requester -> Home, Request),
            send!(FwdLoad, Home -> Owner, Request),
            S::OwnerProbeGr(Owner),
            S::Count("read_remote_gr"),
            send!(DatumReply, Owner -> Requester, DatumPlusOwnerId),
            S::InstallInvalidHint,
            S::NoteServeOwner,
        ],
    },
    Rule {
        name: "read-inv-nohint-unowned",
        when: &[G::InvalidEntry, G::NoUsableHint, G::BlockUnowned],
        steps: &[
            S::Count("read_miss_invalid"),
            miss!(write: false, cold: false),
            send!(LoadReq, Requester -> Home, Request),
            S::FetchMem,
            send!(BlockReply, Home -> Requester, BlockTransfer),
            S::InstallOwnedExclusive,
        ],
    },
    Rule {
        name: "read-inv-nohint-owned-dw",
        when: &[
            G::InvalidEntry,
            G::NoUsableHint,
            G::BlockOwned,
            G::OwnerIsDw,
        ],
        steps: &[
            S::Count("read_miss_invalid"),
            miss!(write: false, cold: false),
            send!(LoadReq, Requester -> Home, Request),
            send!(FwdLoad, Home -> Owner, Request),
            S::OwnerProbeDw(Owner),
            send!(BlockReply, Owner -> Requester, BlockTransfer),
            S::InstallUnownedCopy,
            S::NoteServeOwner,
        ],
    },
    Rule {
        name: "read-inv-nohint-owned-gr",
        when: &[
            G::InvalidEntry,
            G::NoUsableHint,
            G::BlockOwned,
            G::OwnerIsGr,
        ],
        steps: &[
            S::Count("read_miss_invalid"),
            miss!(write: false, cold: false),
            send!(LoadReq, Requester -> Home, Request),
            send!(FwdLoad, Home -> Owner, Request),
            S::OwnerProbeGr(Owner),
            S::Count("read_remote_gr"),
            send!(DatumReply, Owner -> Requester, Datum),
            S::SetHintAtReq,
            S::NoteServeOwner,
        ],
    },
    Rule {
        name: "read-inv-hint-dw",
        when: &[G::InvalidEntry, G::UsableHint, G::HintOwns, G::HintIsDw],
        steps: &[
            S::Count("read_miss_invalid"),
            miss!(write: false, cold: false),
            send!(DirectLoadReq, Requester -> Hint, Request),
            S::OwnerProbeDw(Hint),
            send!(BlockReply, Hint -> Requester, BlockTransfer),
            S::InstallUnownedCopy,
            S::NoteServeOwner,
        ],
    },
    Rule {
        name: "read-inv-hint-gr",
        when: &[G::InvalidEntry, G::UsableHint, G::HintOwns, G::HintIsGr],
        steps: &[
            S::Count("read_miss_invalid"),
            miss!(write: false, cold: false),
            send!(DirectLoadReq, Requester -> Hint, Request),
            S::OwnerProbeGr(Hint),
            S::Count("read_remote_gr"),
            send!(DatumReply, Hint -> Requester, Datum),
            // The requester's hint already names the server: nothing to
            // refresh.
            S::NoteServeOwner,
        ],
    },
    Rule {
        name: "read-inv-stale-unowned",
        when: &[
            G::InvalidEntry,
            G::UsableHint,
            G::HintStale,
            G::BlockUnowned,
        ],
        steps: &[
            S::Count("read_miss_invalid"),
            miss!(write: false, cold: false),
            send!(DirectLoadReq, Requester -> Hint, Request),
            S::Count("redirects"),
            S::StaleHintNote,
            send!(Redirect, Hint -> Home, Request),
            S::FetchMem,
            send!(BlockReply, Home -> Requester, BlockTransfer),
            S::InstallOwnedExclusive,
        ],
    },
    Rule {
        name: "read-inv-stale-owned-dw",
        when: &[
            G::InvalidEntry,
            G::UsableHint,
            G::HintStale,
            G::BlockOwned,
            G::OwnerIsDw,
        ],
        steps: &[
            S::Count("read_miss_invalid"),
            miss!(write: false, cold: false),
            send!(DirectLoadReq, Requester -> Hint, Request),
            S::Count("redirects"),
            S::StaleHintNote,
            send!(Redirect, Hint -> Home, Request),
            send!(FwdLoad, Home -> Owner, Request),
            S::OwnerProbeDw(Owner),
            send!(BlockReply, Owner -> Requester, BlockTransfer),
            S::InstallUnownedCopy,
            S::NoteServeOwner,
        ],
    },
    Rule {
        name: "read-inv-stale-owned-gr",
        when: &[
            G::InvalidEntry,
            G::UsableHint,
            G::HintStale,
            G::BlockOwned,
            G::OwnerIsGr,
        ],
        steps: &[
            S::Count("read_miss_invalid"),
            miss!(write: false, cold: false),
            send!(DirectLoadReq, Requester -> Hint, Request),
            S::Count("redirects"),
            S::StaleHintNote,
            send!(Redirect, Hint -> Home, Request),
            send!(FwdLoad, Home -> Owner, Request),
            S::OwnerProbeGr(Owner),
            S::Count("read_remote_gr"),
            send!(DatumReply, Owner -> Requester, Datum),
            S::SetHintAtReq,
            S::NoteServeOwner,
        ],
    },
];

/// Processor write (§2.2 cases 3 and 4): every rule ends with the owned
/// write and its conditional update cast.
pub static WRITE_RULES: &[Rule] = &[
    Rule {
        name: "write-hit-owner",
        when: &[G::OwnedHit],
        steps: &[S::Count("write_hit_owner"), S::WriteAtOwner, S::UpdateCast],
    },
    Rule {
        name: "write-hit-unowned-dw",
        when: &[G::UnOwnedHit, G::OwnerIsDw],
        steps: &[
            S::Count("write_hit_unowned"),
            send!(OwnershipReq, Requester -> Home, Request),
            S::SetOwnerReq,
            send!(FwdOwnership, Home -> Owner, Request),
            S::XferProbe,
            send!(OwnershipXfer, Owner -> Requester, StateTransfer),
            S::DemoteOldDw,
            S::InstallXfer { send_data: false },
            S::WriteAtOwner,
            S::UpdateCast,
        ],
    },
    Rule {
        name: "write-hit-unowned-gr",
        when: &[G::UnOwnedHit, G::OwnerIsGr],
        steps: &[
            S::Count("write_hit_unowned"),
            send!(OwnershipReq, Requester -> Home, Request),
            S::SetOwnerReq,
            send!(FwdOwnership, Home -> Owner, Request),
            S::XferProbe,
            send!(OwnershipXfer, Owner -> Requester, BlockAndState),
            S::AnnounceCast,
            S::InvalidateOldGr,
            S::InstallXfer { send_data: true },
            S::WriteAtOwner,
            S::UpdateCast,
        ],
    },
    Rule {
        name: "write-miss-cold-unowned",
        when: &[G::Missing, G::BlockUnowned],
        steps: &[
            S::Count("write_miss"),
            miss!(write: true, cold: true),
            send!(LoadOwnReq, Requester -> Home, Request),
            S::FetchMem,
            send!(BlockReply, Home -> Requester, BlockTransfer),
            S::InstallOwnedExclusive,
            S::WriteAtOwner,
            S::UpdateCast,
        ],
    },
    Rule {
        name: "write-miss-inv-unowned",
        when: &[G::InvalidEntry, G::BlockUnowned],
        steps: &[
            S::Count("write_miss"),
            miss!(write: true, cold: false),
            send!(LoadOwnReq, Requester -> Home, Request),
            S::FetchMem,
            send!(BlockReply, Home -> Requester, BlockTransfer),
            S::InstallOwnedExclusive,
            S::WriteAtOwner,
            S::UpdateCast,
        ],
    },
    Rule {
        name: "write-miss-cold-owned-dw",
        when: &[G::Missing, G::BlockOwned, G::OwnerIsDw],
        steps: &[
            S::Count("write_miss"),
            miss!(write: true, cold: true),
            send!(LoadOwnReq, Requester -> Home, Request),
            S::SetOwnerReq,
            send!(FwdLoadOwn, Home -> Owner, Request),
            S::RegisterReqAtOld,
            S::XferProbe,
            send!(OwnershipXfer, Owner -> Requester, BlockAndState),
            S::DemoteOldDw,
            S::InstallXfer { send_data: true },
            S::WriteAtOwner,
            S::UpdateCast,
        ],
    },
    Rule {
        name: "write-miss-inv-owned-dw",
        when: &[G::InvalidEntry, G::BlockOwned, G::OwnerIsDw],
        steps: &[
            S::Count("write_miss"),
            miss!(write: true, cold: false),
            send!(LoadOwnReq, Requester -> Home, Request),
            S::SetOwnerReq,
            send!(FwdLoadOwn, Home -> Owner, Request),
            S::RegisterReqAtOld,
            S::XferProbe,
            send!(OwnershipXfer, Owner -> Requester, BlockAndState),
            S::DemoteOldDw,
            S::InstallXfer { send_data: true },
            S::WriteAtOwner,
            S::UpdateCast,
        ],
    },
    Rule {
        name: "write-miss-cold-owned-gr",
        when: &[G::Missing, G::BlockOwned, G::OwnerIsGr],
        steps: &[
            S::Count("write_miss"),
            miss!(write: true, cold: true),
            send!(LoadOwnReq, Requester -> Home, Request),
            S::SetOwnerReq,
            send!(FwdLoadOwn, Home -> Owner, Request),
            S::RegisterReqAtOld,
            S::XferProbe,
            send!(OwnershipXfer, Owner -> Requester, BlockAndState),
            S::AnnounceCast,
            S::InvalidateOldGr,
            S::InstallXfer { send_data: true },
            S::WriteAtOwner,
            S::UpdateCast,
        ],
    },
    Rule {
        name: "write-miss-inv-owned-gr",
        when: &[G::InvalidEntry, G::BlockOwned, G::OwnerIsGr],
        steps: &[
            S::Count("write_miss"),
            miss!(write: true, cold: false),
            send!(LoadOwnReq, Requester -> Home, Request),
            S::SetOwnerReq,
            send!(FwdLoadOwn, Home -> Owner, Request),
            S::RegisterReqAtOld,
            S::XferProbe,
            send!(OwnershipXfer, Owner -> Requester, BlockAndState),
            S::AnnounceCast,
            S::InvalidateOldGr,
            S::InstallXfer { send_data: true },
            S::WriteAtOwner,
            S::UpdateCast,
        ],
    },
];

/// Software mode directive (§2.2 cases 6/7 entry): acquire ownership like
/// a write (but with no miss accounting — directives are not misses),
/// then switch in place via [`MODE_RULES`].
pub static SET_MODE_RULES: &[Rule] = &[
    Rule {
        name: "setmode-hit-owner",
        when: &[G::OwnedHit],
        steps: &[S::SwitchMode],
    },
    Rule {
        name: "setmode-hit-unowned-dw",
        when: &[G::UnOwnedHit, G::OwnerIsDw],
        steps: &[
            send!(OwnershipReq, Requester -> Home, Request),
            S::SetOwnerReq,
            send!(FwdOwnership, Home -> Owner, Request),
            S::XferProbe,
            send!(OwnershipXfer, Owner -> Requester, StateTransfer),
            S::DemoteOldDw,
            S::InstallXfer { send_data: false },
            S::SwitchMode,
        ],
    },
    Rule {
        name: "setmode-hit-unowned-gr",
        when: &[G::UnOwnedHit, G::OwnerIsGr],
        steps: &[
            send!(OwnershipReq, Requester -> Home, Request),
            S::SetOwnerReq,
            send!(FwdOwnership, Home -> Owner, Request),
            S::XferProbe,
            send!(OwnershipXfer, Owner -> Requester, BlockAndState),
            S::AnnounceCast,
            S::InvalidateOldGr,
            S::InstallXfer { send_data: true },
            S::SwitchMode,
        ],
    },
    Rule {
        name: "setmode-miss-unowned",
        when: &[G::Miss, G::BlockUnowned],
        steps: &[
            send!(LoadOwnReq, Requester -> Home, Request),
            S::FetchMem,
            send!(BlockReply, Home -> Requester, BlockTransfer),
            S::InstallOwnedExclusive,
            S::SwitchMode,
        ],
    },
    Rule {
        name: "setmode-miss-owned-dw",
        when: &[G::Miss, G::BlockOwned, G::OwnerIsDw],
        steps: &[
            send!(LoadOwnReq, Requester -> Home, Request),
            S::SetOwnerReq,
            send!(FwdLoadOwn, Home -> Owner, Request),
            S::RegisterReqAtOld,
            S::XferProbe,
            send!(OwnershipXfer, Owner -> Requester, BlockAndState),
            S::DemoteOldDw,
            S::InstallXfer { send_data: true },
            S::SwitchMode,
        ],
    },
    Rule {
        name: "setmode-miss-owned-gr",
        when: &[G::Miss, G::BlockOwned, G::OwnerIsGr],
        steps: &[
            send!(LoadOwnReq, Requester -> Home, Request),
            S::SetOwnerReq,
            send!(FwdLoadOwn, Home -> Owner, Request),
            S::RegisterReqAtOld,
            S::XferProbe,
            send!(OwnershipXfer, Owner -> Requester, BlockAndState),
            S::AnnounceCast,
            S::InvalidateOldGr,
            S::InstallXfer { send_data: true },
            S::SwitchMode,
        ],
    },
];

/// Replacement (§2.2 case 5). The interpreter brackets every rule with
/// the shared prelude (replacement counter, trace event, victim capture)
/// and postlude (drop the entry, log the change); the rules carry what
/// differs per victim class.
pub static REPLACE_RULES: &[Rule] = &[
    Rule {
        name: "replace-owned-exclusive-dirty",
        when: &[G::VictimOwned, G::Exclusive, G::Dirty],
        steps: &[
            send!(WriteBack, Requester -> Home, BlockTransfer),
            S::Count("writebacks"),
            S::MemWriteBackVictim,
            S::ClearStoreVictim,
        ],
    },
    Rule {
        name: "replace-owned-exclusive-clean",
        when: &[G::VictimOwned, G::Exclusive, G::Clean],
        steps: &[
            send!(ReplaceNotice, Requester -> Home, Request),
            S::ClearStoreVictim,
        ],
    },
    Rule {
        name: "replace-handoff-dw",
        when: &[G::VictimOwned, G::NotExclusive, G::VictimDw],
        steps: &[
            S::HandoffOffers,
            send!(OwnershipReq, Candidate -> Home, Request),
            S::SetOwnerCand,
            send!(FwdOwnership, Home -> Requester, Request),
            send!(OwnershipXfer, Requester -> Candidate, StateTransfer),
            S::PromoteCandDw,
            S::Count("ownership_transfers"),
        ],
    },
    Rule {
        name: "replace-handoff-gr",
        when: &[G::VictimOwned, G::NotExclusive, G::VictimGr],
        steps: &[
            S::HandoffOffers,
            send!(OwnershipReq, Candidate -> Home, Request),
            S::SetOwnerCand,
            send!(FwdOwnership, Home -> Requester, Request),
            send!(OwnershipXfer, Requester -> Candidate, BlockAndState),
            S::PromoteCandGr,
            S::AnnounceCastHandoff,
            S::Count("ownership_transfers"),
        ],
    },
    Rule {
        name: "replace-copy-owned",
        when: &[G::VictimCopy, G::BlockOwned],
        steps: &[
            send!(ReplaceNotice, Requester -> Home, Request),
            send!(FwdPresenceClear, Home -> Owner, Request),
            S::ClearPresenceAtOwner,
        ],
    },
    Rule {
        name: "replace-copy-orphan",
        when: &[G::VictimCopy, G::BlockUnowned],
        steps: &[send!(ReplaceNotice, Requester -> Home, Request)],
    },
];

/// In-place mode switch at the owner (§2.2 cases 6 and 7; also the §5
/// adaptive policy's actuator). The interpreter emits the mode-switch
/// trace event and state-change log entry around the fired rule's steps;
/// a `switch-noop` fire is fully silent.
pub static MODE_RULES: &[Rule] = &[
    Rule {
        name: "switch-noop",
        when: &[G::SameMode],
        steps: &[],
    },
    Rule {
        name: "switch-to-dw",
        when: &[G::ModeChanges, G::ToDw],
        steps: &[S::Count("mode_switch_to_dw"), S::ModeToDw],
    },
    Rule {
        name: "switch-to-gr-lone",
        when: &[G::ModeChanges, G::ToGr, G::LoneCopy],
        steps: &[S::Count("mode_switch_to_gr"), S::ModeToGr],
    },
    Rule {
        name: "switch-to-gr-shared",
        when: &[G::ModeChanges, G::ToGr, G::SharedCopies],
        steps: &[
            S::Count("mode_switch_to_gr"),
            S::ModeToGr,
            S::InvalidateCast,
        ],
    },
];

/// The complete protocol action table.
pub static PROTOCOL_IR: ProtocolIr = ProtocolIr {
    read: READ_RULES,
    write: WRITE_RULES,
    set_mode: SET_MODE_RULES,
    replace: REPLACE_RULES,
    mode: MODE_RULES,
};

/// The three tables a processor transaction dispatches through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Access {
    /// [`ProtocolIr::read`].
    Read,
    /// [`ProtocolIr::write`].
    Write,
    /// [`ProtocolIr::set_mode`].
    SetMode,
}

impl Access {
    /// Every access table, in [`Dispatch`] index order.
    pub const ALL: [Access; 3] = [Access::Read, Access::Write, Access::SetMode];

    /// This access's table in `ir`.
    #[must_use]
    pub fn rules(self, ir: &ProtocolIr) -> &'static [Rule] {
        match self {
            Access::Read => ir.read,
            Access::Write => ir.write,
            Access::SetMode => ir.set_mode,
        }
    }
}

/// Access contexts per [`LookupClass`]: 4 owner states × 4 hint states.
const CODES_PER_CLASS: usize = 16;

/// An access context as a dense code: lookup class, then the owner state
/// (unowned, owned without a line, DW, GR), then the OWNER-hint state
/// (unusable, stale, fresh at a DW owner, fresh at a GR owner). Lossless
/// for every context the engine builds; `None` without a lookup class.
fn access_code(ctx: &RuleCtx) -> Option<usize> {
    let owner = match (ctx.block_owned, ctx.owner_mode) {
        (false, _) => 0,
        (true, None) => 1,
        (true, Some(Mode::DistributedWrite)) => 2,
        (true, Some(Mode::GlobalRead)) => 3,
    };
    let hint = match (ctx.usable_hint, ctx.hint_owns, ctx.hint_mode) {
        (false, _, _) => 0,
        (true, false, _) => 1,
        (true, true, Some(Mode::DistributedWrite)) => 2,
        (true, true, _) => 3,
    };
    Some(ctx.lookup? as usize * CODES_PER_CLASS + owner * 4 + hint)
}

/// The context [`access_code`] maps to `code`.
fn access_ctx(code: usize) -> RuleCtx {
    let mode = |m: usize| [Mode::DistributedWrite, Mode::GlobalRead][m - 2];
    let (owner, hint) = (code / 4 % 4, code % 4);
    RuleCtx {
        lookup: Some(LookupClass::ALL[code / CODES_PER_CLASS]),
        block_owned: owner > 0,
        owner_mode: (owner >= 2).then(|| mode(owner)),
        usable_hint: hint > 0,
        hint_owns: hint >= 2,
        hint_mode: (hint >= 2).then(|| mode(hint)),
        ..RuleCtx::default()
    }
}

/// A [`ProtocolIr`]'s access tables memoized: first-match [`select`]
/// evaluated once for every access context, so a transaction selects its
/// rule with one array lookup. The index also records which context
/// fields the selectable rules read, so the engine probes nothing else:
/// a hit probes neither the owner nor the hint (its class alone picks the
/// rule), and a fresh OWNER hint spares the block-store probe.
#[derive(Debug)]
pub(crate) struct Dispatch {
    ir: &'static ProtocolIr,
    /// `rules[access][code]`: the rule `select` picks for the context
    /// `code` decodes to.
    rules: [[Option<&'static Rule>; 4 * CODES_PER_CLASS]; 3],
    /// `class[access][lookup class]`: the rule, when the class alone picks
    /// it (no selectable rule reads the hint or the owner).
    class: [[Option<&'static Rule>; 4]; 3],
    /// `hint[access][lookup class]`: some selectable rule reads the hint.
    hint: [[bool; 4]; 3],
    /// `owner[access][lookup class * 4 + hint state]`: some rule
    /// selectable in that class and hint state reads the owner.
    owner: [[bool; 16]; 3],
}

impl Dispatch {
    /// Indexes `ir`.
    #[must_use]
    pub fn new(ir: &'static ProtocolIr) -> Self {
        let mut index = Dispatch {
            ir,
            rules: [[None; 4 * CODES_PER_CLASS]; 3],
            class: [[None; 4]; 3],
            hint: [[false; 4]; 3],
            owner: [[false; 16]; 3],
        };
        for access in Access::ALL {
            let a = access as usize;
            for code in 0..4 * CODES_PER_CLASS {
                let rule = select(access.rules(ir), &access_ctx(code));
                index.rules[a][code] = rule;
                // A selection that varies with a field has a selectable
                // rule guarded on that field, so these flags cover it.
                let reads =
                    |field: fn(&Guard) -> bool| rule.is_some_and(|r| r.when.iter().any(field));
                let (class, hint) = (code / CODES_PER_CLASS, code % 4);
                index.hint[a][class] |= reads(Guard::reads_hint);
                index.owner[a][class * 4 + hint] |= reads(Guard::reads_owner);
            }
            for class in 0..4 {
                if !index.hint[a][class] && !index.owner[a][class * 4] {
                    index.class[a][class] = index.rules[a][class * CODES_PER_CLASS];
                }
            }
        }
        index
    }

    /// The index of [`PROTOCOL_IR`], built once per process.
    #[must_use]
    pub fn protocol() -> &'static Dispatch {
        static INDEX: std::sync::OnceLock<Dispatch> = std::sync::OnceLock::new();
        INDEX.get_or_init(|| Dispatch::new(&PROTOCOL_IR))
    }

    /// The indexed tables.
    #[must_use]
    pub fn ir(&self) -> &'static ProtocolIr {
        self.ir
    }

    /// The rule for `lookup` when the class alone picks it — no selectable
    /// rule reads the hint or the owner (every hit) — else `None`.
    #[must_use]
    pub fn by_class(&self, access: Access, lookup: LookupClass) -> Option<&'static Rule> {
        self.class[access as usize][lookup as usize]
    }

    /// Whether `access`'s rules for `lookup` read the OWNER-hint fields.
    #[must_use]
    pub fn needs_hint(&self, access: Access, lookup: LookupClass) -> bool {
        self.hint[access as usize][lookup as usize]
    }

    /// Whether `access`'s rules for `ctx`'s lookup class and hint fields
    /// read the owner fields (`false` without a lookup class).
    #[must_use]
    pub fn needs_owner(&self, access: Access, ctx: &RuleCtx) -> bool {
        access_code(ctx)
            .is_some_and(|code| self.owner[access as usize][code / CODES_PER_CLASS * 4 + code % 4])
    }

    /// The rule first-match [`select`] picks from `access`'s table for
    /// `ctx`, by lookup.
    #[must_use]
    pub fn select(&self, access: Access, ctx: &RuleCtx) -> Option<&'static Rule> {
        self.rules[access as usize][access_code(ctx)?]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every well-formed access context: the requester's lookup class,
    /// the owner and its mode, and the OWNER-hint status, restricted to
    /// combinations a machine can be in.
    fn access_contexts() -> Vec<RuleCtx> {
        let modes = [Mode::DistributedWrite, Mode::GlobalRead];
        let mut out = Vec::new();
        for lookup in LookupClass::ALL {
            for block_owned in [false, true] {
                for owner_mode in [None, Some(modes[0]), Some(modes[1])] {
                    if block_owned != owner_mode.is_some() {
                        continue; // an owner always has a moded line
                    }
                    // A hit means the requester itself holds a line; for
                    // OwnedHit the requester is the owner, and an UnOwned
                    // copy implies an owner, so the block must be owned.
                    if lookup.is_hit() && !block_owned {
                        continue;
                    }
                    for usable_hint in [false, true] {
                        if usable_hint && lookup != LookupClass::InvalidEntry {
                            continue; // hints live on invalid entries
                        }
                        for hint_owns in [false, true] {
                            if hint_owns && (!usable_hint || !block_owned) {
                                continue;
                            }
                            out.push(RuleCtx {
                                lookup: Some(lookup),
                                block_owned,
                                owner_mode,
                                usable_hint,
                                hint_owns,
                                hint_mode: if hint_owns { owner_mode } else { None },
                                ..RuleCtx::default()
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Asserts exactly one rule of `rules` fires for `ctx`: the guard
    /// structure is total and deterministic, not just first-match-wins.
    fn assert_fires_once(table: &str, rules: &[Rule], ctx: &RuleCtx) {
        let fired: Vec<_> = rules
            .iter()
            .filter(|r| r.when.iter().all(|g| g.holds(ctx)))
            .map(|r| r.name)
            .collect();
        assert_eq!(fired.len(), 1, "{table} table fired {fired:?} for {ctx:?}");
    }

    /// Every well-formed access context selects exactly one rule in each
    /// of the read/write/set-mode tables.
    #[test]
    fn access_tables_are_total_and_unambiguous() {
        for ctx in access_contexts() {
            for access in Access::ALL {
                assert_fires_once(&format!("{access:?}"), access.rules(&PROTOCOL_IR), &ctx);
            }
        }
    }

    /// The dispatch index picks the rule first-match [`select`] picks, for
    /// every access context above — also when the context carries only
    /// the fields the index says the rules read, filled in the engine's
    /// order (the hint, then the owner given the hint), and when the
    /// lookup class alone picks the rule.
    #[test]
    fn dispatch_index_selects_like_first_match() {
        for code in 0..4 * CODES_PER_CLASS {
            assert_eq!(access_code(&access_ctx(code)), Some(code));
        }
        let dispatch = Dispatch::new(&PROTOCOL_IR);
        for ctx in access_contexts() {
            let lookup = ctx.lookup.expect("access context");
            for access in Access::ALL {
                let want = select(access.rules(&PROTOCOL_IR), &ctx).map(|r| r.name);
                let mut sparse = RuleCtx {
                    lookup: Some(lookup),
                    ..RuleCtx::default()
                };
                if let Some(rule) = dispatch.by_class(access, lookup) {
                    assert_eq!(Some(rule.name), want, "{access:?} by class for {ctx:?}");
                }
                if dispatch.needs_hint(access, lookup) {
                    sparse.usable_hint = ctx.usable_hint;
                    sparse.hint_owns = ctx.hint_owns;
                    sparse.hint_mode = ctx.hint_mode;
                }
                if dispatch.needs_owner(access, &sparse) {
                    sparse.block_owned = ctx.block_owned;
                    sparse.owner_mode = ctx.owner_mode;
                }
                for probe in [ctx, sparse] {
                    let got = dispatch.select(access, &probe).map(|r| r.name);
                    assert_eq!(got, want, "{access:?} for {probe:?} (full context {ctx:?})");
                }
            }
        }
        // Every hit is picked by its class alone; a fresh hint spares the
        // owner probe.
        for access in Access::ALL {
            assert!(dispatch.by_class(access, LookupClass::OwnedHit).is_some());
        }
        assert!(dispatch
            .by_class(Access::Read, LookupClass::UnOwnedHit)
            .is_some());
        let fresh = RuleCtx {
            lookup: Some(LookupClass::InvalidEntry),
            usable_hint: true,
            hint_owns: true,
            hint_mode: Some(Mode::GlobalRead),
            ..RuleCtx::default()
        };
        assert!(!dispatch.needs_owner(Access::Read, &fresh));
    }

    /// Every victim class selects exactly one replacement rule.
    #[test]
    fn replace_table_is_total_and_unambiguous() {
        for owned in [false, true] {
            for exclusive in [false, true] {
                for modified in [false, true] {
                    for mode in [Mode::DistributedWrite, Mode::GlobalRead] {
                        for block_owned in [false, true] {
                            if owned && !block_owned {
                                continue; // the replacer owning it implies the store says so
                            }
                            let ctx = RuleCtx {
                                victim: Some(VictimCtx {
                                    owned,
                                    exclusive,
                                    modified,
                                    mode,
                                }),
                                block_owned,
                                ..RuleCtx::default()
                            };
                            assert_fires_once("replace", REPLACE_RULES, &ctx);
                        }
                    }
                }
            }
        }
    }

    /// Every (current, target, copies) combination selects exactly one
    /// mode-switch rule.
    #[test]
    fn mode_table_is_total_and_unambiguous() {
        for current in [Mode::DistributedWrite, Mode::GlobalRead] {
            for target in [Mode::DistributedWrite, Mode::GlobalRead] {
                for other_copies in [false, true] {
                    let ctx = RuleCtx {
                        mode_switch: Some(ModeCtx {
                            current,
                            target,
                            other_copies,
                        }),
                        ..RuleCtx::default()
                    };
                    assert_fires_once("mode", MODE_RULES, &ctx);
                }
            }
        }
    }

    /// Rule names are unique across the whole IR — they key diagnostics,
    /// docs and the negative conformance test.
    #[test]
    fn rule_names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for rules in [
            READ_RULES,
            WRITE_RULES,
            SET_MODE_RULES,
            REPLACE_RULES,
            MODE_RULES,
        ] {
            for r in rules {
                assert!(seen.insert(r.name), "duplicate rule name {}", r.name);
            }
        }
        assert_eq!(seen.len(), 37, "rule census drifted — update the docs");
    }
}
