//! The benchmark's simulator node: a thin wrapper around the program's own
//! [`SimProcessor`] or [`OrbNode`] that books every delivery against the op
//! schedule and, in a traced round, times each public entry point it calls.
//!
//! Untraced, a packet or tick goes through the wrapped node's own
//! [`SimNode`] implementation untouched. Traced, the wrapper makes the same
//! calls itself — `Processor::handle_packet` or `Processor::tick`, then the
//! host's pump — so each can be timed on its own.

use crate::check::Oracles;
use crate::trace::{Kind, Probe, NO_PARENT};
use bytes::Bytes;
use ftmp_check::Event;
use ftmp_core::{
    ConnectionId, GroupId, Observation, Processor, ProcessorId, ProtocolEvent, RequestNum,
    SendError, SendOutcome, SeqNum, SimProcessor, Timestamp,
};
use ftmp_net::{Outbox, Packet, SimNode, SimTime};
use ftmp_orb::{InvocationResult, OrbNode};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// `Book::due_us` of an op that was never sent.
pub const NOT_SENT: u64 = u64::MAX;
/// `Book::done_us` of an op that has not completed.
pub const PENDING: u64 = u64::MAX;

/// Per-op and per-member accounting for one round.
pub struct Book {
    /// Virtual time each op was due, µs.
    pub due_us: Vec<u64>,
    /// Virtual time each op completed, µs.
    pub done_us: Vec<u64>,
    /// Counting members that still have to deliver each op.
    need: Vec<u8>,
    /// Ops completed so far.
    pub completed: usize,
    /// Ops completed since the op loop last looked (closed loops).
    pub fresh: Vec<u32>,
    /// Per member (index = id − 1): whether its deliveries complete ops.
    counts: Vec<bool>,
    /// Per member: ops delivered, in delivery order.
    pub seqs: Vec<Vec<u32>>,
    /// Per member: which ops it has delivered (bitset).
    seen: Vec<Vec<u64>>,
    /// Deliveries of an op a member had already delivered.
    pub duplicates: u64,
    /// Deliveries naming no scheduled op.
    pub strays: u64,
    /// Per op: the value an invocation returned (`i64::MIN` until known).
    pub values: Vec<i64>,
    /// Completions whose result was an exception or disagreed between
    /// client replicas.
    pub bad_results: u64,
    /// A restarted member and the op due time from which its first
    /// in-order delivery is watched for.
    pub watch: Option<(u32, u64)>,
    /// When the watched delivery happened, µs.
    pub watch_hit_us: Option<u64>,
}

impl Book {
    /// A book for `ops` ops over `members` members, each completed once
    /// `need` counting members delivered it.
    pub fn new(ops: usize, members: u32, need: u8) -> Self {
        Book {
            due_us: vec![NOT_SENT; ops],
            done_us: vec![PENDING; ops],
            need: vec![need; ops],
            completed: 0,
            fresh: Vec::new(),
            counts: vec![true; members as usize],
            seqs: vec![Vec::with_capacity(ops); members as usize],
            seen: vec![vec![0; ops.div_ceil(64)]; members as usize],
            duplicates: 0,
            strays: 0,
            values: vec![i64::MIN; ops],
            bad_results: 0,
            watch: None,
            watch_hit_us: None,
        }
    }

    /// Stop counting `member`'s deliveries towards completion.
    pub fn exclude(&mut self, member: u32) {
        self.counts[member as usize - 1] = false;
    }

    /// `member` delivered op `op` (request number `op + 1`) at `at_us`.
    pub fn deliver(&mut self, member: u32, at_us: u64, request: u64) {
        let m = member as usize - 1;
        let Some(op) = request
            .checked_sub(1)
            .filter(|&k| (k as usize) < self.due_us.len())
        else {
            self.strays += 1;
            return;
        };
        let k = op as usize;
        let (word, bit) = (k / 64, 1u64 << (k % 64));
        if self.seen[m][word] & bit != 0 {
            self.duplicates += 1;
            return;
        }
        self.seen[m][word] |= bit;
        self.seqs[m].push(op as u32);
        if let Some((who, from_us)) = self.watch {
            if who == member && self.watch_hit_us.is_none() && self.due_us[k] >= from_us {
                self.watch_hit_us = Some(at_us);
            }
        }
        if self.counts[m] && self.need[k] > 0 {
            self.need[k] -= 1;
            if self.need[k] == 0 {
                self.done_us[k] = at_us;
                self.completed += 1;
                self.fresh.push(op as u32);
            }
        }
    }
}

/// State every node of a round shares with the op loop.
pub struct Ctx {
    /// Op accounting.
    pub book: Book,
    /// Membership changes and fault reports: (time, node, event).
    pub events: Vec<(SimTime, u32, ProtocolEvent)>,
    /// The traced round's recorder.
    pub probe: Option<Probe>,
    /// The oracles of a checked round.
    pub checker: Option<Oracles>,
}

/// Shared handle on a round's [`Ctx`].
pub type Shared = Rc<RefCell<Ctx>>;

/// The program's node types the wrapper can host.
pub trait Host: SimNode {
    /// The FTMP engine.
    fn engine(&self) -> &Processor;
    /// The FTMP engine, mutably.
    fn engine_mut(&mut self) -> &mut Processor;
    /// Apply the engine's pending actions (network, application).
    fn pump(&mut self, now: SimTime, out: &mut Outbox);
    /// Move finished work — deliveries or completions — and protocol events
    /// into the round's books. `pump` is the span that produced them.
    fn settle(&mut self, id: u32, now: SimTime, ctx: &mut Ctx, pump: u32);
}

fn note_event(ctx: &mut Ctx, id: u32, now: SimTime, e: ProtocolEvent) {
    if matches!(
        e,
        ProtocolEvent::MembershipChange { .. } | ProtocolEvent::FaultReport { .. }
    ) {
        ctx.events.push((now, id, e));
    }
}

fn deliver_span(ctx: &mut Ctx, id: u32, now: SimTime, op: u64, pump: u32) {
    if let Some(p) = ctx.probe.as_mut() {
        let t = Instant::now();
        p.span(Kind::Deliver, pump, op, id, now, t, t);
    }
}

impl Host for SimProcessor {
    fn engine(&self) -> &Processor {
        SimProcessor::engine(self)
    }

    fn engine_mut(&mut self) -> &mut Processor {
        SimProcessor::engine_mut(self)
    }

    fn pump(&mut self, now: SimTime, out: &mut Outbox) {
        self.pump_at(now, out);
    }

    fn settle(&mut self, id: u32, now: SimTime, ctx: &mut Ctx, pump: u32) {
        if self.delivery_count() > 0 {
            for (at, d) in self.take_deliveries() {
                ctx.book.deliver(id, at.as_micros(), d.request_num.0);
                deliver_span(ctx, id, at, d.request_num.0, pump);
            }
        }
        for (_, e) in self.take_events() {
            note_event(ctx, id, now, e);
        }
    }
}

impl Host for OrbNode {
    fn engine(&self) -> &Processor {
        self.proc()
    }

    fn engine_mut(&mut self) -> &mut Processor {
        self.proc_mut()
    }

    fn pump(&mut self, now: SimTime, out: &mut Outbox) {
        OrbNode::pump(self, now, out);
    }

    fn settle(&mut self, id: u32, now: SimTime, ctx: &mut Ctx, pump: u32) {
        for c in self.take_completions() {
            let req = c.request_num.0;
            let value = match c.result {
                InvocationResult::Ok(bytes) => ftmp_orb::servant::decode_i64_result(&bytes),
                _ => None,
            };
            let k = req.wrapping_sub(1) as usize;
            match (value, ctx.book.values.get(k).copied()) {
                (Some(v), Some(i64::MIN)) => ctx.book.values[k] = v,
                (Some(v), Some(seen)) if v == seen => {}
                _ => ctx.book.bad_results += 1,
            }
            ctx.book.deliver(id, now.as_micros(), req);
            deliver_span(ctx, id, now, req, pump);
            if let Some(oracles) = ctx.checker.as_mut() {
                let group = self.proc().connection_group(c.conn).unwrap_or(GroupId(0));
                oracles.completion(Event {
                    at: now,
                    node: ProcessorId(id),
                    obs: Observation::Delivered {
                        group,
                        conn: c.conn,
                        request: c.request_num,
                        source: ProcessorId(id),
                        seq: SeqNum(0),
                        ts: Timestamp(0),
                    },
                });
            }
        }
        for e in self.take_events() {
            note_event(ctx, id, now, e);
        }
    }
}

/// A simulator node wrapping one of the program's own nodes.
pub struct BenchNode<H> {
    host: H,
    id: u32,
    ctx: Shared,
    traced: bool,
    checked: bool,
    obs: Vec<Observation>,
}

impl<H: Host> BenchNode<H> {
    /// Wrap `host` as node `id` of the round sharing `ctx`. A checked round
    /// turns on the engine's observation stream for the oracles.
    pub fn new(mut host: H, id: u32, ctx: &Shared) -> Self {
        let (traced, checked) = {
            let c = ctx.borrow();
            (c.probe.is_some(), c.checker.is_some())
        };
        if checked {
            host.engine_mut().enable_observations();
        }
        BenchNode {
            host,
            id,
            ctx: Rc::clone(ctx),
            traced,
            checked,
            obs: Vec::new(),
        }
    }

    /// The wrapped node.
    pub fn host(&self) -> &H {
        &self.host
    }

    /// The FTMP engine.
    pub fn engine(&self) -> &Processor {
        self.host.engine()
    }

    /// The FTMP engine, mutably (bootstrap calls; pump afterwards).
    pub fn engine_mut(&mut self) -> &mut Processor {
        self.host.engine_mut()
    }

    /// Apply pending actions outside any timed entry point (bootstrap).
    pub fn pump(&mut self, now: SimTime, out: &mut Outbox) {
        self.host.pump(now, out);
        self.settle(now, NO_PARENT);
    }

    /// Run `call` on the wrapped node as a timed span of `kind` for op `op`
    /// caused by span `parent`, then pump (timed as its child) when `pump`
    /// is set.
    #[allow(clippy::too_many_arguments)]
    fn entry<R>(
        &mut self,
        now: SimTime,
        out: &mut Outbox,
        kind: Kind,
        parent: u32,
        op: u64,
        pump: bool,
        call: impl FnOnce(&mut H, &mut Outbox) -> R,
    ) -> R {
        if !self.traced {
            let r = call(&mut self.host, out);
            if pump {
                self.host.pump(now, out);
            }
            self.settle(now, NO_PARENT);
            return r;
        }
        let t0 = Instant::now();
        let r = call(&mut self.host, out);
        let t1 = Instant::now();
        if pump {
            self.host.pump(now, out);
        }
        let t2 = Instant::now();
        let pump_span = {
            let mut c = self.ctx.borrow_mut();
            let p = c.probe.as_mut().expect("traced round has a probe");
            let root = p.span(kind, parent, op, self.id, now, t0, t2);
            let child = if pump {
                p.span(Kind::Pump, root, 0, self.id, now, t1, t2)
            } else {
                root
            };
            if kind == Kind::Packet && self.id == p.capture_node {
                p.capture_packet_ns += t1.duration_since(t0).as_nanos() as u64;
            }
            p.set_pump(self.id, child);
            child
        };
        self.settle(now, pump_span);
        let t3 = Instant::now();
        let mut c = self.ctx.borrow_mut();
        let p = c.probe.as_mut().expect("traced round has a probe");
        p.span(Kind::App, pump_span, 0, self.id, now, t2, t3);
        r
    }

    fn settle(&mut self, now: SimTime, pump: u32) {
        let mut c = self.ctx.borrow_mut();
        self.host.settle(self.id, now, &mut c, pump);
        if self.checked {
            self.host
                .engine_mut()
                .drain_observations_into(&mut self.obs);
            let node = ProcessorId(self.id);
            let oracles = c.checker.as_mut().expect("checked round has oracles");
            for obs in self.obs.drain(..) {
                oracles.ingest(Event { at: now, node, obs });
            }
        }
    }
}

impl BenchNode<SimProcessor> {
    /// Multicast one op's message: the open loops' send entry point.
    pub fn send(
        &mut self,
        now: SimTime,
        out: &mut Outbox,
        conn: ConnectionId,
        request: u64,
        payload: Bytes,
    ) -> Result<SendOutcome, SendError> {
        self.entry(now, out, Kind::Send, NO_PARENT, request, true, |h, _| {
            h.engine_mut()
                .multicast_request(now, conn, RequestNum(request), payload)
        })
    }
}

impl BenchNode<OrbNode> {
    /// Issue one invocation at this client replica: the closed loop's send
    /// entry point (`OrbNode::invoke` pumps by itself).
    pub fn invoke(
        &mut self,
        now: SimTime,
        out: &mut Outbox,
        conn: ConnectionId,
        operation: &str,
        args: &[u8],
        request: u64,
    ) -> RequestNum {
        self.entry(now, out, Kind::Send, NO_PARENT, request, false, |h, out| {
            h.invoke(now, conn, b"obj", operation, args, out)
        })
    }
}

impl<H: Host> SimNode for BenchNode<H> {
    fn on_packet(&mut self, now: SimTime, pkt: &Packet, out: &mut Outbox) {
        if !self.traced {
            self.host.on_packet(now, pkt, out);
            self.settle(now, NO_PARENT);
            return;
        }
        let cause = {
            let mut c = self.ctx.borrow_mut();
            let p = c.probe.as_mut().expect("traced round has a probe");
            if self.id == p.capture_node {
                p.arrivals.push((now, pkt.payload.clone()));
            }
            p.cause_of(&pkt.payload)
        };
        self.entry(now, out, Kind::Packet, cause, 0, true, |h, _| {
            h.engine_mut().handle_packet(now, pkt)
        });
    }

    fn on_tick(&mut self, now: SimTime, out: &mut Outbox) {
        if !self.traced {
            self.host.on_tick(now, out);
            self.settle(now, NO_PARENT);
            return;
        }
        self.entry(now, out, Kind::Tick, NO_PARENT, 0, true, |h, _| {
            h.engine_mut().tick(now)
        });
    }
}
