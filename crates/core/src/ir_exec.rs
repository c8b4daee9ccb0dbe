//! The protocol engine: interprets the guarded-action tables of
//! [`crate::ir`] on the live machine.
//!
//! This file is compiled as a child module of [`crate::system`] (via
//! `#[path]`), so the interpreter works directly on `System`'s private
//! state — caches, block store, traffic matrix, logs and profiler hooks.
//! All traffic goes through [`System::send`]/[`System::mcast`], so
//! batching, timing, fault injection and transaction logging compose with
//! every rule unchanged.
//!
//! Access transactions select through the table's [`Dispatch`] index and
//! probe only the context fields the rules selectable for their lookup
//! class read; a hit probes nothing beyond its own tag. Interpreter
//! scratch lives on the stack (one [`Scratch`] per fired rule), so rules
//! re-enter cleanly: an install step may trigger a replacement, whose rule
//! may trigger a handoff, without any shared mutable interpreter state.

use super::*;
use crate::ir::{Access, Ep, LookupClass, ModeCtx, Rule, RuleCtx, SizeClass, Step, VictimCtx};
use tmc_memsys::BlockData;

/// Per-rule interpreter scratch: resolved endpoints plus the values
/// micro-ops pass between each other.
pub(super) struct Scratch {
    /// The requester (access tables), the replacing cache (replacement)
    /// or the owner (mode switch).
    proc: usize,
    block: BlockAddr,
    offset: usize,
    /// The value being written (writes).
    pub(super) value_in: u64,
    /// The value produced for the processor (reads).
    pub(super) value_out: u64,
    /// Requested mode (set-mode only).
    pub(super) target_mode: Mode,
    /// Block-store owner at rule start, when the rule reads it.
    owner: Option<usize>,
    /// Usable OWNER-hint target, when the rule reads it.
    hint: Option<usize>,
    /// The cache on the far side: the owner that served the load (probe
    /// steps) or the handoff candidate that accepted ownership.
    peer: usize,
    /// `log_state` snapshot of the serving/old owner, consumed by
    /// `NoteServeOwner` / the demote-invalidate steps.
    before_owner: Option<StateName>,
    /// Block data in flight: the memory fetch, the DW probe's copy, the
    /// transferred block, or the victim's contents.
    data: Option<BlockData>,
    /// Mode and M bit of the old owner (transfer) or the victim.
    mode: Mode,
    modified: bool,
    /// The old owner's present vector (transfer), the victim's present
    /// vector (replacement), or the update cast's targets (owned write).
    set: Option<DestSet>,
}

impl Scratch {
    /// Scratch for a transaction by `proc` on the word at `offset` of
    /// `block`.
    pub(super) fn new(proc: usize, block: BlockAddr, offset: usize) -> Self {
        Scratch {
            proc,
            block,
            offset,
            value_in: 0,
            value_out: 0,
            target_mode: Mode::DistributedWrite,
            owner: None,
            hint: None,
            peer: usize::MAX,
            before_owner: None,
            data: None,
            mode: Mode::DistributedWrite,
            modified: false,
            set: None,
        }
    }

    fn owner(&self) -> usize {
        self.owner.expect("rule guarded on an owned block")
    }
}

impl System {
    /// Payload bits for a [`SizeClass`] under this machine's §2.3 sizing.
    fn ir_bits(&self, size: SizeClass) -> u64 {
        let s = &self.cfg.sizing;
        match size {
            SizeClass::Request => s.request_bits(),
            SizeClass::BlockTransfer => s.block_transfer_bits(),
            SizeClass::Datum => s.datum_bits(),
            SizeClass::DatumPlusOwnerId => {
                s.datum_bits() + self.cfg.n_caches.trailing_zeros() as u64
            }
            SizeClass::Update => s.update_bits(),
            SizeClass::Invalidate => s.invalidate_bits(),
            SizeClass::NewOwnerId => s.new_owner_bits(self.cfg.n_caches),
            SizeClass::StateTransfer => s.state_transfer_bits(self.cfg.n_caches),
            SizeClass::BlockAndState => s.block_and_state_bits(self.cfg.n_caches),
            SizeClass::Ack => s.ack_bits(),
        }
    }

    /// The port a logical endpoint names in this firing.
    fn ep(&self, scr: &Scratch, ep: Ep) -> usize {
        match ep {
            Ep::Requester => scr.proc,
            Ep::Home => self.home_port(scr.block),
            Ep::Owner => scr.owner(),
            Ep::Hint => scr.hint.expect("rule guarded on a usable hint"),
            Ep::Candidate => scr.peer,
        }
    }

    /// Panics with a diagnostic when no rule matched — an incomplete
    /// action table, which the exhaustiveness tests in [`crate::ir`] rule
    /// out for well-formed protocol states.
    fn fired(rule: Option<&'static Rule>, op: &str, ctx: &RuleCtx) -> &'static Rule {
        rule.unwrap_or_else(|| panic!("protocol IR: no {op} rule matches {ctx:?}"))
    }

    /// Selects and runs the `access` rule for `lookup`.
    #[inline(always)]
    pub(super) fn exec_access(&mut self, access: Access, lookup: LookupClass, scr: &mut Scratch) {
        let rule = match self.dispatch.by_class(access, lookup) {
            Some(rule) => rule,
            None => self.select_probed(access, lookup, scr),
        };
        self.run(rule.steps, scr);
    }

    /// Selects the `access` rule for `lookup` after probing the context
    /// fields its selectable rules read: the hint first, then the owner if
    /// the hint state leaves it relevant.
    fn select_probed(
        &mut self,
        access: Access,
        lookup: LookupClass,
        scr: &mut Scratch,
    ) -> &'static Rule {
        let mut ctx = RuleCtx {
            lookup: Some(lookup),
            ..RuleCtx::default()
        };
        let block = scr.block;
        if self.cfg.owner_bypass && self.dispatch.needs_hint(access, lookup) {
            scr.hint = self.caches[scr.proc]
                .peek(block)
                .and_then(|l| l.owner_hint)
                .map(|h| h.port());
            let hint_line = scr.hint.and_then(|h| self.caches[h].peek(block));
            ctx.usable_hint = scr.hint.is_some();
            ctx.hint_owns = hint_line.is_some_and(CacheLine::is_owned);
            ctx.hint_mode = hint_line.filter(|l| l.is_owned()).map(|l| l.mode);
        }
        if self.dispatch.needs_owner(access, &ctx) {
            scr.owner = self.store.owner(block).map(|o| o.port());
            ctx.block_owned = scr.owner.is_some();
            ctx.owner_mode = scr
                .owner
                .and_then(|o| self.caches[o].peek(block))
                .map(|l| l.mode);
        }
        Self::fired(self.dispatch.select(access, &ctx), "access", &ctx)
    }

    /// The owned-write tail every write rule ends with
    /// ([`Step::WriteAtOwner`], [`Step::UpdateCast`]), run at `owner`.
    pub(super) fn owned_write(
        &mut self,
        owner: usize,
        block: BlockAddr,
        offset: usize,
        value: u64,
    ) {
        let mut scr = Scratch::new(owner, block, offset);
        scr.value_in = value;
        self.run(&[Step::WriteAtOwner, Step::UpdateCast], &mut scr);
    }

    /// Drops `victim` from `proc`'s cache and runs its §2.2 case-5 rule:
    /// the shared prelude (counter, trace event, victim capture) and
    /// postlude (state-change log) bracket the fired rule's steps.
    pub(super) fn replace(&mut self, proc: usize, victim: BlockAddr) {
        self.counters.incr("replacements");
        let before = self.log_state(proc, victim);
        let line = self.caches[proc].remove(victim).expect("victim exists");
        let me = CacheId(proc as u16);
        let owned = line.validity == Validity::Owned;
        let exclusive = line.is_exclusive(me);
        self.tracer.push(ProtocolEvent::Replacement {
            proc,
            block: victim,
            wrote_back: owned && exclusive && line.modified,
        });
        let mut scr = Scratch::new(proc, victim, 0);
        scr.owner = self.store.owner(victim).map(|o| o.port());
        let ctx = RuleCtx {
            block_owned: scr.owner.is_some(),
            victim: Some(VictimCtx {
                owned,
                exclusive,
                modified: line.modified,
                mode: line.mode,
            }),
            ..RuleCtx::default()
        };
        let rule = Self::fired(
            crate::ir::select(self.dispatch.ir().replace, &ctx),
            "replace",
            &ctx,
        );
        scr.mode = line.mode;
        scr.modified = line.modified;
        scr.data = Some(line.data);
        scr.set = Some(line.present);
        self.run(rule.steps, &mut scr);
        self.note_state_change(proc, victim, before);
    }

    /// Switches the mode of an already-owned block in place (§2.2 cases 6
    /// and 7). `adaptive` only labels the trace event: `true` for §5
    /// window decisions, `false` for software directives. A fired no-op
    /// rule (empty step list) is fully silent — no trace event, no log
    /// entry.
    pub(super) fn switch_mode_at_owner(
        &mut self,
        owner: usize,
        block: BlockAddr,
        target: Mode,
        adaptive: bool,
    ) {
        let line = self.caches[owner].peek(block).expect("owner line");
        let ctx = RuleCtx {
            mode_switch: Some(ModeCtx {
                current: line.mode,
                target,
                other_copies: line.present.len() > usize::from(line.present.contains(owner)),
            }),
            ..RuleCtx::default()
        };
        let rule = Self::fired(
            crate::ir::select(self.dispatch.ir().mode, &ctx),
            "mode",
            &ctx,
        );
        if rule.steps.is_empty() {
            return;
        }
        self.tracer.push(ProtocolEvent::ModeSwitch {
            owner,
            block,
            to: target.into(),
            adaptive,
        });
        let before = self.log_state(owner, block);
        let mut scr = Scratch::new(owner, block, 0);
        self.run(rule.steps, &mut scr);
        self.note_state_change(owner, block, before);
    }

    /// Applies a fired rule's steps in order.
    ///
    /// One-line micro-ops run inline; every other micro-op is an
    /// out-of-line method below. That keeps this dispatch loop small
    /// enough for the compiler to hold it in registers, so stepping
    /// through a rule costs little more than calling its micro-ops
    /// directly.
    #[inline(always)]
    fn run(&mut self, steps: &[Step], scr: &mut Scratch) {
        for step in steps {
            match *step {
                Step::Count(counter) => self.counters.incr(counter),
                Step::Miss { write, cold } => self.tracer.push(ProtocolEvent::Miss {
                    proc: scr.proc,
                    block: scr.block,
                    write,
                    cold,
                }),
                Step::Send {
                    kind,
                    from,
                    to,
                    size,
                } => self.emit(scr, kind, from, to, size),
                Step::ReadHitWord => {
                    // `get`, not `peek`: the hit refreshes LRU recency.
                    scr.value_out = self.caches[scr.proc]
                        .get(scr.block)
                        .expect("hit verified")
                        .data
                        .word(scr.offset);
                }
                Step::FetchMem => self.fetch_mem(scr),
                Step::InstallOwnedExclusive => self.install_owned_exclusive(scr),
                Step::OwnerProbeDw(ep) => self.owner_probe(scr, ep, Mode::DistributedWrite),
                Step::OwnerProbeGr(ep) => self.owner_probe(scr, ep, Mode::GlobalRead),
                Step::InstallUnownedCopy => self.install_unowned_copy(scr),
                Step::SetHintAtReq => self.set_hint_at_req(scr),
                Step::InstallInvalidHint => self.install_invalid_hint(scr),
                Step::NoteServeOwner => {
                    let before = scr.before_owner.take();
                    self.note_state_change(scr.peer, scr.block, before);
                }
                Step::StaleHintNote => self.stale_hint_note(scr),
                Step::SetOwnerReq => self.store.set_owner(scr.block, CacheId(scr.proc as u16)),
                Step::RegisterReqAtOld => {
                    let line = self.caches[scr.owner()].peek_mut(scr.block);
                    line.expect("owner line").present.insert(scr.proc);
                }
                Step::XferProbe => self.xfer_probe(scr),
                Step::DemoteOldDw => self.retire_old_owner(scr, Validity::UnOwned),
                Step::InvalidateOldGr => self.retire_old_owner(scr, Validity::Invalid),
                Step::AnnounceCast => self.announce_owner(scr, scr.owner(), scr.proc),
                Step::InstallXfer { send_data } => self.install_xfer(scr, send_data),
                Step::WriteAtOwner => self.write_at_owner(scr),
                Step::UpdateCast => self.update_cast(scr),
                Step::SwitchMode => {
                    self.switch_mode_at_owner(scr.proc, scr.block, scr.target_mode, false);
                }
                Step::MemWriteBackVictim => {
                    let data = scr.data.as_ref().expect("victim captured");
                    self.memory.write_block(scr.block, data);
                }
                Step::ClearStoreVictim => self.store.clear(scr.block),
                Step::ClearPresenceAtOwner => {
                    if let Some(line) = self.caches[scr.owner()].peek_mut(scr.block) {
                        line.present.remove(scr.proc);
                    }
                }
                Step::HandoffOffers => self.handoff_offers(scr),
                Step::SetOwnerCand => self.store.set_owner(scr.block, CacheId(scr.peer as u16)),
                Step::PromoteCandDw => self.promote_cand(scr, Mode::DistributedWrite),
                Step::PromoteCandGr => self.promote_cand(scr, Mode::GlobalRead),
                Step::AnnounceCastHandoff => self.announce_owner(scr, scr.proc, scr.peer),
                Step::ModeToDw => self.mode_to_dw(scr),
                Step::ModeToGr => self.mode_to_gr(scr),
                Step::InvalidateCast => self.invalidate_cast(scr),
            }
        }
    }

    #[inline(never)]
    fn emit(&mut self, scr: &Scratch, kind: MsgKind, from: Ep, to: Ep, size: SizeClass) {
        let bits = self.ir_bits(size);
        self.send(kind, self.ep(scr, from), self.ep(scr, to), bits);
    }

    #[inline(never)]
    fn fetch_mem(&mut self, scr: &mut Scratch) {
        let t = self.profiler.start();
        scr.data = Some(self.memory.block_data(scr.block));
        self.profiler.end(Phase::MemCopy, t);
    }

    #[inline(never)]
    fn install_owned_exclusive(&mut self, scr: &mut Scratch) {
        let (proc, block) = (scr.proc, scr.block);
        let data = scr.data.take().expect("FetchMem ran");
        scr.value_out = data.word(scr.offset);
        let before = self.log_state(proc, block);
        let line = CacheLine::owned_exclusive(
            data,
            CacheId(proc as u16),
            self.cfg.mode_policy.initial_mode(),
            self.cfg.n_caches,
        );
        self.install_line(proc, block, line);
        self.store.set_owner(block, CacheId(proc as u16));
        self.note_state_change(proc, block, before);
    }

    /// One owner-tag probe serves the whole load: the block is cloned only
    /// when a full copy will cross the network (distributed write); a
    /// global-read datum moves one word and counts in the §5 window.
    #[inline(never)]
    fn owner_probe(&mut self, scr: &mut Scratch, ep: Ep, mode: Mode) {
        let (proc, block) = (scr.proc, scr.block);
        let serve = self.ep(scr, ep);
        scr.peer = serve;
        scr.before_owner = self.log_state(serve, block);
        let t = self.profiler.start();
        let line = self.caches[serve]
            .peek_mut(block)
            .expect("block store names an owner without a line");
        debug_assert!(line.is_owned());
        line.present.insert(proc);
        scr.value_out = line.data.word(scr.offset);
        match mode {
            Mode::DistributedWrite => scr.data = Some(line.data.clone()),
            Mode::GlobalRead => line.window_remote_reads += 1,
        }
        self.profiler.end(Phase::MemCopy, t);
    }

    #[inline(never)]
    fn install_unowned_copy(&mut self, scr: &mut Scratch) {
        let (proc, block) = (scr.proc, scr.block);
        let before = self.log_state(proc, block);
        let data = scr.data.take().expect("DW probe cloned the block");
        let line = CacheLine::unowned(data, CacheId(scr.peer as u16), self.cfg.n_caches);
        self.install_line(proc, block, line);
        self.note_state_change(proc, block, before);
    }

    #[inline(never)]
    fn set_hint_at_req(&mut self, scr: &mut Scratch) {
        let (proc, block) = (scr.proc, scr.block);
        let before = self.log_state(proc, block);
        let entry = self.caches[proc].peek_mut(block).expect("entry present");
        entry.owner_hint = Some(CacheId(scr.peer as u16));
        self.note_state_change(proc, block, before);
    }

    #[inline(never)]
    fn install_invalid_hint(&mut self, scr: &mut Scratch) {
        let (proc, block) = (scr.proc, scr.block);
        let before = self.log_state(proc, block);
        let line = CacheLine::invalid_hint(
            CacheId(scr.peer as u16),
            self.cfg.n_caches,
            self.cfg.spec.words_per_block(),
        );
        self.install_line(proc, block, line);
        self.note_state_change(proc, block, before);
    }

    #[inline(never)]
    fn stale_hint_note(&mut self, scr: &Scratch) {
        let (proc, block) = (scr.proc, scr.block);
        self.note_with(|| format!("stale OWNER hint at C{proc} for {block}: redirect via memory"));
    }

    #[inline(never)]
    fn xfer_probe(&mut self, scr: &mut Scratch) {
        let (proc, block, old) = (scr.proc, scr.block, scr.owner());
        debug_assert_ne!(old, proc, "owner never re-acquires ownership");
        self.counters.incr("ownership_transfers");
        self.tracer.push(ProtocolEvent::OwnershipTransfer {
            block,
            from: old,
            to: proc,
            handoff: false,
        });
        scr.before_owner = self.log_state(old, block);
        let t = self.profiler.start();
        let line = self.caches[old].peek_mut(block).expect("old owner line");
        debug_assert!(line.is_owned());
        line.present.insert(proc);
        scr.mode = line.mode;
        scr.modified = line.modified;
        scr.data = Some(line.data.clone());
        scr.set = Some(line.present.clone());
        self.profiler.end(Phase::MemCopy, t);
    }

    /// The old owner's copy becomes `validity` — UnOwned (DW: it stays a
    /// valid copy) or Invalid (GR). The M bit (write-back duty) travels
    /// with ownership.
    #[inline(never)]
    fn retire_old_owner(&mut self, scr: &mut Scratch, validity: Validity) {
        let (block, old) = (scr.block, scr.owner());
        let line = self.caches[old].peek_mut(block).expect("old owner line");
        line.validity = validity;
        line.modified = false;
        line.owner_hint = Some(CacheId(scr.proc as u16));
        line.present = DestSet::empty(self.cfg.n_caches);
        line.reset_window();
        let before = scr.before_owner.take();
        self.note_state_change(old, block, before);
    }

    #[inline(never)]
    fn install_xfer(&mut self, scr: &mut Scratch, send_data: bool) {
        let (proc, block) = (scr.proc, scr.block);
        let before = self.log_state(proc, block);
        let mut present = scr.set.take().expect("XferProbe ran");
        present.insert(proc);
        let data = scr.data.take().expect("XferProbe ran");
        let data = if send_data {
            data
        } else {
            self.caches[proc]
                .peek(block)
                .expect("requester said it has data")
                .data
                .clone()
        };
        let line = CacheLine {
            validity: Validity::Owned,
            mode: scr.mode,
            modified: scr.modified,
            present,
            owner_hint: Some(CacheId(proc as u16)),
            data,
            window_refs: 0,
            window_remote_reads: 0,
            window_writes: 0,
        };
        self.install_line(proc, block, line);
        self.note_state_change(proc, block, before);
    }

    /// Applies the write at the owning requester and, when §2.2 case 3(b)
    /// calls for an update cast (DW mode, other copies), keeps its targets
    /// for [`Step::UpdateCast`].
    #[inline(never)]
    fn write_at_owner(&mut self, scr: &mut Scratch) {
        let proc = scr.proc;
        let t = self.profiler.start();
        let line = self.caches[proc]
            .peek_mut(scr.block)
            .expect("owner has a line");
        debug_assert!(line.is_owned());
        line.data.set_word(scr.offset, scr.value_in);
        line.modified = true;
        let shared =
            line.mode == Mode::DistributedWrite && !line.is_exclusive(CacheId(proc as u16));
        scr.set = shared
            .then(|| {
                let mut others = line.present.clone();
                others.remove(proc);
                others
            })
            .filter(|others| !others.is_empty());
        self.profiler.end(Phase::MemCopy, t);
    }

    #[inline(never)]
    fn update_cast(&mut self, scr: &mut Scratch) {
        let Some(others) = scr.set.take() else {
            return;
        };
        let (proc, block) = (scr.proc, scr.block);
        self.counters.incr("updates_multicast");
        let delivered = self.mcast(
            MsgKind::UpdateWrite,
            proc,
            &others,
            self.cfg.sizing.update_bits(),
        );
        debug_assert!(
            others.iter().all(|d| delivered.contains(&d)),
            "scheme must cover all copy holders"
        );
        for &dest in &delivered {
            if dest == proc {
                continue;
            }
            if let Some(line) = self.caches[dest].peek_mut(block) {
                if line.is_valid() {
                    line.data.set_word(scr.offset, scr.value_in);
                }
            }
        }
        self.recycle_delivered(delivered);
    }

    /// §2.2 case 5(b): candidates are the victim's present-vector ports
    /// other than the replacer, offered ownership in ascending order until
    /// one accepts; the last one always does, so handoff terminates.
    #[inline(never)]
    fn handoff_offers(&mut self, scr: &mut Scratch) {
        let (proc, block) = (scr.proc, scr.block);
        let present = scr.set.as_ref().expect("victim captured");
        let n_candidates = present.len() - usize::from(present.contains(proc));
        debug_assert!(n_candidates > 0, "nonexclusive implies other copies");
        let mut offered = 0;
        for cand in present.iter() {
            if cand == proc {
                continue;
            }
            offered += 1;
            self.send(
                MsgKind::OwnershipOffer,
                proc,
                cand,
                self.cfg.sizing.request_bits(),
            );
            if self.nak_budget > 0 && offered < n_candidates {
                self.nak_budget -= 1;
                self.counters.incr("offer_nak");
                self.send(MsgKind::OfferNak, cand, proc, self.cfg.sizing.ack_bits());
                continue;
            }
            self.send(MsgKind::OfferAck, cand, proc, self.cfg.sizing.ack_bits());
            scr.peer = cand;
            break;
        }
        let cand = scr.peer;
        assert_ne!(cand, usize::MAX, "the final candidate always accepts");
        self.tracer.push(ProtocolEvent::OwnershipTransfer {
            block,
            from: proc,
            to: cand,
            handoff: true,
        });
        self.note_with(|| format!("C{proc} hands ownership of {block} to C{cand}"));
    }

    /// The accepted candidate's entry becomes the owned line in `mode`,
    /// with the victim's present vector minus the replacer: DW promotes a
    /// valid copy; GR promotes an invalid entry, so the data travels too.
    #[inline(never)]
    fn promote_cand(&mut self, scr: &mut Scratch, mode: Mode) {
        let (proc, block, cand) = (scr.proc, scr.block, scr.peer);
        let mut present = scr.set.clone().expect("victim captured");
        present.remove(proc);
        present.insert(cand);
        let before = self.log_state(cand, block);
        let cline = self.caches[cand]
            .peek_mut(block)
            .expect("present flag implies a resident entry");
        debug_assert_eq!(
            cline.is_valid(),
            mode == Mode::DistributedWrite,
            "present flags mark copies (DW) or invalid entries (GR)"
        );
        cline.validity = Validity::Owned;
        cline.mode = mode;
        cline.modified = scr.modified;
        if mode == Mode::GlobalRead {
            cline.data = scr.data.take().expect("victim captured");
        }
        cline.present = present;
        cline.owner_hint = Some(CacheId(cand as u16));
        cline.reset_window();
        self.note_state_change(cand, block, before);
    }

    /// §2.2 case 6: the GR present vector marked invalid entries; clear it
    /// to the owner alone (see DESIGN.md).
    #[inline(never)]
    fn mode_to_dw(&mut self, scr: &Scratch) {
        let owner = scr.proc;
        let mut fresh = DestSet::empty(self.cfg.n_caches);
        fresh.insert(owner);
        let line = self.caches[owner].peek_mut(scr.block).expect("owner line");
        line.mode = Mode::DistributedWrite;
        line.present = fresh;
        line.reset_window();
    }

    /// §2.2 case 7: the present vector is retained — the invalidated
    /// caches are exactly the invalid-entry holders GR mode tracks.
    #[inline(never)]
    fn mode_to_gr(&mut self, scr: &Scratch) {
        let line = self.caches[scr.proc]
            .peek_mut(scr.block)
            .expect("owner line");
        line.mode = Mode::GlobalRead;
        line.reset_window();
    }

    #[inline(never)]
    fn invalidate_cast(&mut self, scr: &Scratch) {
        let (owner, block) = (scr.proc, scr.block);
        let mut others = self.caches[owner]
            .peek(block)
            .expect("owner line")
            .present
            .clone();
        others.remove(owner);
        debug_assert!(!others.is_empty(), "rule guarded on shared copies");
        self.counters.incr("invalidate_multicast");
        let delivered = self.mcast(
            MsgKind::Invalidate,
            owner,
            &others,
            self.cfg.sizing.invalidate_bits(),
        );
        debug_assert!(
            others.iter().all(|d| delivered.contains(&d)),
            "invalidation must reach all copies"
        );
        for &dest in &delivered {
            if let Some(line) = self.caches[dest].peek_mut(block) {
                if line.is_valid() && !line.is_owned() {
                    let b = self.log_state(dest, block);
                    let line = self.caches[dest].peek_mut(block).expect("checked");
                    line.validity = Validity::Invalid;
                    line.owner_hint = Some(CacheId(owner as u16));
                    self.note_state_change(dest, block, b);
                }
            }
        }
        self.recycle_delivered(delivered);
    }

    /// Multicasts the new owner `new` from `from` to the invalid entries in
    /// the captured present vector other than the two of them, updating
    /// their OWNER hints.
    #[inline(never)]
    fn announce_owner(&mut self, scr: &Scratch, from: usize, new: usize) {
        let block = scr.block;
        let mut announce = scr.set.clone().expect("present vector captured");
        announce.remove(from);
        announce.remove(new);
        if announce.is_empty() {
            return;
        }
        self.counters.incr("owner_announce_multicast");
        let delivered = self.mcast(
            MsgKind::NewOwnerAnnounce,
            from,
            &announce,
            self.cfg.sizing.new_owner_bits(self.cfg.n_caches),
        );
        for &dest in &delivered {
            if let Some(line) = self.caches[dest].peek_mut(block) {
                if !line.is_valid() {
                    line.owner_hint = Some(CacheId(new as u16));
                }
            }
        }
        self.recycle_delivered(delivered);
    }
}
