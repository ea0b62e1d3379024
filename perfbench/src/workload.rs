//! The three workloads, each driven through the deterministic simulator
//! from one thread, and the per-round correctness checks.
//!
//! A *round* builds a fresh world from the seed, drives the whole op
//! schedule, settles, and checks the outcome. Everything measured in
//! virtual time depends only on the seed; wall time is what the round cost.

use crate::check::Oracles;
use crate::node::{BenchNode, Book, Ctx, Host, Shared, NOT_SENT, PENDING};
use crate::sys::Fnv;
use crate::trace::{Kind, Probe, NO_PARENT};
use bytes::Bytes;
use ftmp_core::pgmp::ServerRegistration;
use ftmp_core::wire::{self, FtmpMsgType};
use ftmp_core::{
    ClockMode, ConnectionId, DeliveryLog, GroupId, ObjectGroupId, PackPolicy, Packing, Processor,
    ProcessorId, ProtocolConfig, ProtocolEvent, SimProcessor, Timestamp,
};
use ftmp_net::{LossModel, McastAddr, NetStats, SimConfig, SimDuration, SimNet, SimTime};
use ftmp_orb::{OrbEndpoint, OrbNode};
use ftmp_store::{DurableLog, LogConfig};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// The open loops' processor group and its multicast address.
pub const GROUP: GroupId = GroupId(1);
const ADDR: McastAddr = McastAddr(100);
/// The invocation workload's connection group (the servers' pool group).
pub const CONN_GROUP: GroupId = GroupId(10);
const DOMAIN_ADDR: McastAddr = McastAddr(500);
const POOL_ADDR: McastAddr = McastAddr(600);
/// Longest virtual wait for the last op before the rest count as failed.
const DRAIN_LIMIT: SimDuration = SimDuration::from_secs(5);
/// Virtual time the open loops run before their first op is due.
const WARM_UP: SimDuration = SimDuration::from_millis(20);
/// Quiet time after the last invocation completes, before the checks.
const SETTLE: SimDuration = SimDuration::from_millis(200);

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open loop, every member sending small messages on a lossless LAN.
    Flood,
    /// Closed loop of replicated invocations through the mini-ORB.
    Invoke,
    /// Open loop of large messages under loss, with a crash and a restart
    /// from the durable log.
    LossyCrashRestart,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Flood,
        Workload::Invoke,
        Workload::LossyCrashRestart,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Flood => "flood",
            Workload::Invoke => "invoke",
            Workload::LossyCrashRestart => "lossy-crash-restart",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How a round is instrumented. The virtual-time outcome is the same in
/// every mode; only the wall time differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Nothing extra: the end-to-end measurement.
    Plain,
    /// Plain, stopped once the world is built: set-up time alone.
    Setup,
    /// All seven `ftmp-check` oracles attached to every member.
    Checked,
    /// `Processor::enable_telemetry` on every member.
    Telemetry,
    /// Timing wrappers, spans and traffic capture.
    Traced,
}

/// What a round is asked to run.
#[derive(Clone, Debug)]
pub struct Spec {
    /// The workload.
    pub workload: Workload,
    /// Seed for the simulator and the protocol's own randomness.
    pub seed: u64,
    /// Multiplier on the op count (1.0 is the benchmark's size).
    pub scale: f64,
    /// Scratch directory for durable logs.
    pub workdir: PathBuf,
}

/// Aggregated protocol counters over every node at the end of a round.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// RetransmitRequests sent.
    pub nacks: u64,
    /// Retransmissions sent.
    pub retransmissions: u64,
    /// Duplicate reliable messages received.
    pub duplicates: u64,
    /// Standalone heartbeats sent.
    pub heartbeats: u64,
    /// Standalone heartbeats suppressed by piggybacked acks.
    pub heartbeats_suppressed: u64,
    /// Messages discarded at membership-change flushes.
    pub flush_discarded: u64,
    /// Highest ROMP ordering-queue length at any node.
    pub queue_high_water: u64,
    /// Duplicate requests suppressed at the server replicas.
    pub server_suppressed: u64,
    /// Duplicate replies suppressed at the client replicas.
    pub client_suppressed: u64,
}

/// Durable-log costs of a round (lossy-crash-restart).
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    /// Appends made through the timing wrapper (traced rounds).
    pub appends: u64,
    /// Wall time spent in those appends, ns.
    pub append_ns: u64,
    /// Wall time of `ftmp_store::recover` at the restart, ms.
    pub recover_ms: f64,
    /// Records the restart recovered.
    pub records_recovered: u64,
}

/// Membership timings of the crash and the restart, µs of virtual time.
#[derive(Clone, Copy, Debug, Default)]
pub struct Pgmp {
    /// Crash → first fault report at any survivor.
    pub detect_us: Option<u64>,
    /// Crash → the last survivor installs the view without the victim.
    pub convict_us: Option<u64>,
    /// Restart → the last survivor installs the view with the victim.
    pub join_us: Option<u64>,
    /// Fault reports naming a member that had not crashed.
    pub false_convictions: u64,
}

/// The outcome of one round.
pub struct Round {
    /// How the round was instrumented.
    pub mode: Mode,
    /// Wall time to build the world up to its first op, s.
    pub setup_s: f64,
    /// Wall time of the op schedule and its drain, s.
    pub drive_s: f64,
    /// Ops scheduled.
    pub attempted: u64,
    /// Ops completed.
    pub completed: u64,
    /// Due → completion, µs of virtual time, one per completed op, sorted.
    pub latencies_us: Vec<u64>,
    /// The simulator's traffic counters.
    pub net: NetStats,
    /// The end-of-round checks: the oracles (checked rounds), agreement of
    /// the delivery sequences, the restart and the invocation checks.
    pub verdict: Result<(), String>,
    /// Hash of everything the seed determines: delivery sequences,
    /// completion times, traffic and membership events.
    pub fingerprint: u64,
    /// Crash → first completion of an op due after it, µs.
    pub outage_us: Option<u64>,
    /// Restart → the restarted member's first delivery of an op due after
    /// the restart, µs.
    pub rejoin_us: Option<u64>,
    /// Membership timings.
    pub pgmp: Pgmp,
    /// Protocol counters.
    pub counters: Counters,
    /// Durable-log costs.
    pub store: StoreStats,
    /// The traced round's recorder, spans and capture.
    pub probe: Option<Probe>,
    /// The capture node's groups with their membership when capture began.
    pub capture_groups: Vec<(GroupId, Vec<ProcessorId>)>,
    /// Views the capture node installed during the drive.
    pub capture_views: Vec<(SimTime, GroupId, Vec<ProcessorId>, Timestamp)>,
    /// The crashed member and its down window [crash, restart), µs.
    pub victim: Option<(u32, u64, u64)>,
}

impl Round {
    /// A round stopped after set-up.
    fn set_up_only(setup_s: f64) -> Round {
        Round {
            mode: Mode::Setup,
            setup_s,
            drive_s: 0.0,
            attempted: 0,
            completed: 0,
            latencies_us: Vec::new(),
            net: NetStats::default(),
            verdict: Ok(()),
            fingerprint: 0,
            outage_us: None,
            rejoin_us: None,
            pgmp: Pgmp::default(),
            counters: Counters::default(),
            store: StoreStats::default(),
            probe: None,
            capture_groups: Vec::new(),
            capture_views: Vec::new(),
            victim: None,
        }
    }

    /// Ops that were refused or never completed.
    pub fn failed(&self) -> u64 {
        self.attempted - self.completed
    }

    /// Completed ops per wall-second of the drive.
    pub fn ops_per_s(&self) -> f64 {
        self.completed as f64 / self.drive_s
    }
}

/// Run one round of `spec` instrumented as `mode`. A check that stops the
/// round early (set-up, the restart's log recovery) is an error; the
/// end-of-round checks land in [`Round::verdict`].
pub fn run_round(spec: &Spec, mode: Mode) -> Result<Round, String> {
    match spec.workload {
        Workload::Flood => open_loop(spec, &FLOOD, mode),
        Workload::LossyCrashRestart => open_loop(spec, &LOSSY, mode),
        Workload::Invoke => invoke(spec, mode),
    }
}

/// An open-loop shape: members send round-robin on a fixed schedule.
struct OpenShape {
    members: u32,
    ops: usize,
    per_ms: u64,
    payload: usize,
    loss: f64,
    crash_restart: bool,
}

const FLOOD: OpenShape = OpenShape {
    members: 5,
    ops: 100_000,
    per_ms: 10,
    payload: 64,
    loss: 0.0,
    crash_restart: false,
};

const LOSSY: OpenShape = OpenShape {
    members: 5,
    ops: 120_000,
    per_ms: 6,
    payload: 1024,
    loss: 0.05,
    crash_restart: true,
};

fn scaled(ops: usize, scale: f64) -> usize {
    ((ops as f64 * scale) as usize).max(300)
}

/// The benchmarked protocol configuration: Deadline packing, 1400-byte
/// MTU, 500 µs deadline; the protocol's randomness derives from the seed.
fn proto(seed: u64) -> ProtocolConfig {
    ProtocolConfig::with_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xF7F7).packing(
        Packing::with(1400, PackPolicy::Deadline(SimDuration::from_micros(500))),
    )
}

fn conn() -> ConnectionId {
    ConnectionId::new(ObjectGroupId::new(1, 1), ObjectGroupId::new(1, 2))
}

fn new_ctx(
    mode: Mode,
    book: Book,
    capture: u32,
    nodes: u32,
    founders: (GroupId, &[u32]),
    orb_boundary: bool,
) -> Shared {
    let checker = (mode == Mode::Checked).then(|| {
        let ids: Vec<ProcessorId> = founders.1.iter().map(|&i| ProcessorId(i)).collect();
        Oracles::new(founders.0, &ids, orb_boundary)
    });
    Rc::new(RefCell::new(Ctx {
        book,
        events: Vec::new(),
        probe: (mode == Mode::Traced).then(|| Probe::new(capture, nodes)),
        checker,
    }))
}

fn new_net<H: Host>(cfg: SimConfig, ctx: &Shared) -> SimNet<BenchNode<H>> {
    let mut net = SimNet::new(cfg);
    net.set_classifier(wire::classify);
    net.set_message_counter(wire::message_count);
    if ctx.borrow().probe.is_some() {
        let tap = Rc::clone(ctx);
        net.set_wire_tap(move |at, src, dst, payload| {
            if let Some(p) = tap.borrow_mut().probe.as_mut() {
                p.on_wire(at, src, dst, payload);
            }
        });
    }
    net
}

/// Advance virtual time to `t`, as one network span when traced.
fn run_until<H: Host>(net: &mut SimNet<BenchNode<H>>, ctx: &Shared, t: SimTime) {
    if ctx.borrow().probe.is_none() {
        net.run_until(t);
        return;
    }
    let t0 = Instant::now();
    net.run_until(t);
    if let Some(p) = ctx.borrow_mut().probe.as_mut() {
        p.span(Kind::Run, NO_PARENT, 0, 0, t, t0, Instant::now());
    }
}

/// A durable log that times its appends (traced rounds).
struct TimedLog {
    inner: DurableLog,
    ns: Arc<AtomicU64>,
    calls: Arc<AtomicU64>,
}

impl DeliveryLog for TimedLog {
    fn on_delivery(&mut self, d: &ftmp_core::Delivery) {
        let t = Instant::now();
        self.inner.on_delivery(d);
        self.ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        self.calls.fetch_add(1, Relaxed);
    }

    fn on_view_change(&mut self, group: GroupId, members: &[ProcessorId], ts: Timestamp) {
        let t = Instant::now();
        self.inner.on_view_change(group, members, ts);
        self.ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        self.calls.fetch_add(1, Relaxed);
    }
}

/// Shared append counters of every timed log in a round.
#[derive(Default)]
struct AppendTimer {
    ns: Arc<AtomicU64>,
    calls: Arc<AtomicU64>,
}

impl AppendTimer {
    fn open(&self, dir: &Path, timed: bool) -> Result<Box<dyn DeliveryLog>, String> {
        let log = DurableLog::open(dir, LogConfig::default())
            .map_err(|e| format!("open durable log {}: {e}", dir.display()))?;
        Ok(if timed {
            Box::new(TimedLog {
                inner: log,
                ns: Arc::clone(&self.ns),
                calls: Arc::clone(&self.calls),
            })
        } else {
            Box::new(log)
        })
    }
}

/// One open-loop member: a founder of [`GROUP`], or a restarted member
/// waiting to be re-added.
#[allow(clippy::too_many_arguments)]
fn member(
    id: u32,
    founders: &[ProcessorId],
    seed: u64,
    mode: Mode,
    log: Option<(&Path, &AppendTimer)>,
    ctx: &Shared,
    rejoining: bool,
) -> Result<BenchNode<SimProcessor>, String> {
    let mut e = Processor::new(ProcessorId(id), proto(seed), ClockMode::Lamport);
    if rejoining {
        e.expect_join(GROUP, ADDR);
    } else {
        e.create_group(SimTime::ZERO, GROUP, ADDR, founders.iter().copied());
    }
    e.bind_connection(conn(), GROUP);
    if mode == Mode::Telemetry {
        e.enable_telemetry();
    }
    if let Some((dir, timer)) = log {
        e.set_delivery_log(timer.open(&dir.join(format!("m{id}")), mode == Mode::Traced)?);
    }
    Ok(BenchNode::new(SimProcessor::new(e), id, ctx))
}

fn open_loop(spec: &Spec, shape: &OpenShape, mode: Mode) -> Result<Round, String> {
    let n = shape.members;
    let ops = scaled(shape.ops, spec.scale);
    let victim = n;
    let sponsor = 1;
    let need = if shape.crash_restart { n - 1 } else { n };
    let mut book = Book::new(ops, n, need as u8);
    if shape.crash_restart {
        book.exclude(victim);
    }
    let ids: Vec<u32> = (1..=n).collect();
    let ctx = new_ctx(mode, book, 1, n, (GROUP, &ids), false);
    let founders: Vec<ProcessorId> = ids.iter().map(|&i| ProcessorId(i)).collect();
    // Rounds may run concurrently (the tests do), so every round's logs get
    // a directory of their own.
    static ROUNDS: AtomicU64 = AtomicU64::new(0);
    let logdir = shape.crash_restart.then(|| {
        let n = ROUNDS.fetch_add(1, Relaxed);
        spec.workdir
            .join(format!("logs-{}-{n}", std::process::id()))
    });
    let _cleanup = logdir.clone().map(RemoveOnDrop);
    let timer = AppendTimer::default();

    let setup = Instant::now();
    let mut sim = SimConfig::with_seed(spec.seed);
    if shape.loss > 0.0 {
        sim = sim.loss(LossModel::Iid { p: shape.loss });
    }
    let mut net = new_net::<SimProcessor>(sim, &ctx);
    for &id in &ids {
        let log = logdir.as_deref().map(|d| (d, &timer));
        let node = member(id, &founders, spec.seed, mode, log, &ctx, false)?;
        net.add_node(id, node);
        net.with_node(id, |nd, now, out| nd.pump(now, out));
    }
    // Warm-up: two heartbeat rounds establish every member's horizons and
    // acks before the first op is due.
    net.run_until(SimTime::ZERO + WARM_UP);
    let setup_s = setup.elapsed().as_secs_f64();
    if mode == Mode::Setup {
        return Ok(Round::set_up_only(setup_s));
    }
    if let Some(p) = ctx.borrow_mut().probe.as_mut() {
        p.reset();
    }

    let payload = Bytes::from(vec![0xAB; shape.payload]);
    let (crash_k, restart_k) = (ops / 3, ops * 2 / 3);
    let mut senders: Vec<u32> = ids.clone();
    let mut rejoining = false;
    let mut victim_window = None;
    let mut pre_crash = 0usize;
    let mut store = StoreStats::default();
    let drive = Instant::now();
    for k in 0..ops {
        let due = SimTime::ZERO + WARM_UP + SimDuration(k as u64 * 1_000 / shape.per_ms);
        run_until(&mut net, &ctx, due);
        if shape.crash_restart && k == crash_k {
            net.crash(victim);
            senders.retain(|&m| m != victim);
            pre_crash = ctx.borrow().book.seqs[victim as usize - 1].len();
            if let Some(c) = ctx.borrow_mut().checker.as_mut() {
                c.retire(victim);
            }
            victim_window = Some((victim, due.as_micros(), u64::MAX));
        }
        if shape.crash_restart && k == restart_k {
            let dir = logdir.as_deref().expect("crash-restart keeps durable logs");
            store = restart(
                &mut net, &ctx, dir, victim, sponsor, &founders, spec, mode, &timer,
            )?;
            check_recovered(&store, pre_crash)?;
            ctx.borrow_mut().book.watch = Some((victim, due.as_micros()));
            if let Some(w) = victim_window.as_mut() {
                w.2 = due.as_micros();
            }
            rejoining = true;
        }
        if rejoining
            && net
                .node(victim)
                .is_some_and(|v| v.engine().membership(GROUP).is_some())
        {
            senders.push(victim);
            rejoining = false;
        }
        let from = senders[k % senders.len()];
        ctx.borrow_mut().book.due_us[k] = due.as_micros();
        let pl = payload.clone();
        let sent = net
            .with_node(from, |nd, now, out| {
                nd.send(now, out, conn(), k as u64 + 1, pl)
            })
            .expect("sender is a live node");
        if sent.is_err() {
            ctx.borrow_mut().book.due_us[k] = NOT_SENT;
        }
        if mode == Mode::Traced && (k as u64).is_multiple_of(shape.per_ms) {
            sample_peaks(&net, &ctx);
        }
    }
    drain(&mut net, &ctx);
    let drive_s = drive.elapsed().as_secs_f64();
    store.appends = timer.calls.load(Relaxed);
    store.append_ns = timer.ns.load(Relaxed);

    let live: Vec<u32> = ids
        .iter()
        .copied()
        .filter(|&i| !net.is_crashed(i))
        .collect();
    let counters = counters(&net);
    let verdict = finish_checker(&ctx, &live).and_then(|()| {
        let c = ctx.borrow();
        let survivors: Vec<u32> = ids
            .iter()
            .copied()
            .filter(|&i| !shape.crash_restart || i != victim)
            .collect();
        check_agreement(&c.book, &survivors)?;
        if shape.crash_restart {
            check_restarted(&c.book, victim, survivors[0], pre_crash)?;
        }
        Ok(())
    });
    let mut r = finish_round(
        &ctx,
        &net,
        mode,
        setup_s,
        drive_s,
        counters,
        store,
        victim_window,
    );
    r.verdict = verdict;
    r.capture_groups = vec![(GROUP, founders)];
    Ok(r)
}

/// Crash→restart→rejoin in the `restart_from_log` shape: recover the
/// victim's log, build a fresh engine under the same id that expects to be
/// re-added, reattach a log on the same directory, revive, and have the
/// sponsor re-add it.
#[allow(clippy::too_many_arguments)]
fn restart(
    net: &mut SimNet<BenchNode<SimProcessor>>,
    ctx: &Shared,
    dir: &Path,
    victim: u32,
    sponsor: u32,
    founders: &[ProcessorId],
    spec: &Spec,
    mode: Mode,
    timer: &AppendTimer,
) -> Result<StoreStats, String> {
    let vdir = dir.join(format!("m{victim}"));
    let t = Instant::now();
    let recovered =
        ftmp_store::recover(&vdir).map_err(|e| format!("recover {}: {e}", vdir.display()))?;
    let recover_ms = t.elapsed().as_secs_f64() * 1_000.0;
    if recovered.stats.records_quarantined != 0 {
        return Err("a clean crash left records to quarantine".into());
    }
    let state = ftmp_store::RecoveredState::from_records(&recovered.records);
    let node = member(
        victim,
        founders,
        spec.seed,
        mode,
        Some((dir, timer)),
        ctx,
        true,
    )?;
    net.revive(victim, node);
    if let Some(c) = ctx.borrow_mut().checker.as_mut() {
        c.rejoin(victim);
    }
    net.with_node(victim, |nd, now, out| nd.pump(now, out));
    net.with_node(sponsor, |nd, now, out| {
        nd.engine_mut()
            .add_processor(now, GROUP, ProcessorId(victim));
        nd.pump(now, out);
    });
    Ok(StoreStats {
        recover_ms,
        records_recovered: state.delivered,
        ..StoreStats::default()
    })
}

fn check_recovered(store: &StoreStats, delivered_before_crash: usize) -> Result<(), String> {
    if store.records_recovered != delivered_before_crash as u64 {
        return Err(format!(
            "durable log recovered {} deliveries; the member made {delivered_before_crash}",
            store.records_recovered
        ));
    }
    Ok(())
}

/// Run on in 1 ms steps until every sent op completed or the drain limit
/// passed.
fn drain<H: Host>(net: &mut SimNet<BenchNode<H>>, ctx: &Shared) {
    let limit = net.now() + DRAIN_LIMIT;
    let sent = ctx
        .borrow()
        .book
        .due_us
        .iter()
        .filter(|&&d| d != NOT_SENT)
        .count();
    while ctx.borrow().book.completed < sent && net.now() < limit {
        let t = net.now() + SimDuration::from_millis(1);
        run_until(net, ctx, t);
    }
}

fn sample_peaks<H: Host>(net: &SimNet<BenchNode<H>>, ctx: &Shared) {
    let mut retention = 0;
    for (_, nd) in net.nodes() {
        for g in [GROUP, CONN_GROUP] {
            if let Some(m) = nd.engine().group_metrics(g) {
                retention = retention.max(m.retention_msgs);
            }
        }
    }
    if let Some(p) = ctx.borrow_mut().probe.as_mut() {
        p.retention_peak = p.retention_peak.max(retention);
    }
}

fn finish_checker(ctx: &Shared, live: &[u32]) -> Result<(), String> {
    match ctx.borrow_mut().checker.as_mut() {
        Some(oracles) => oracles.finish(live),
        None => Ok(()),
    }
}

/// Every counting member delivered the same sequence (a prefix of the
/// longest, when the drain limit cut a straggler), each op at most once.
fn check_agreement(book: &Book, members: &[u32]) -> Result<(), String> {
    if book.duplicates > 0 || book.strays > 0 || book.bad_results > 0 {
        return Err(format!(
            "{} duplicate deliveries, {} unscheduled deliveries, {} bad results",
            book.duplicates, book.strays, book.bad_results
        ));
    }
    let longest = members
        .iter()
        .map(|&m| &book.seqs[m as usize - 1])
        .max_by_key(|s| s.len())
        .expect("at least one member");
    for &m in members {
        let s = &book.seqs[m as usize - 1];
        if s[..] != longest[..s.len()] {
            return Err(format!("member {m} delivered a different order"));
        }
    }
    Ok(())
}

/// The restarted member's history is the survivors' order: its pre-crash
/// deliveries a prefix, its post-rejoin deliveries one contiguous run that
/// reaches the end.
fn check_restarted(book: &Book, victim: u32, survivor: u32, pre: usize) -> Result<(), String> {
    let reference = &book.seqs[survivor as usize - 1];
    let seq = &book.seqs[victim as usize - 1];
    if seq[..pre] != reference[..pre] {
        return Err("restarted member's pre-crash deliveries diverge".into());
    }
    let post = &seq[pre..];
    let Some(&first) = post.first() else {
        return Err("restarted member delivered nothing after rejoining".into());
    };
    let start = reference
        .iter()
        .position(|&op| op == first)
        .ok_or("restarted member delivered an op the survivors did not")?;
    if reference[start..] != *post {
        return Err("restarted member's post-rejoin deliveries diverge".into());
    }
    Ok(())
}

fn counters<H: Host>(net: &SimNet<BenchNode<H>>) -> Counters {
    let mut c = Counters::default();
    for (_, nd) in net.nodes() {
        let s = nd.engine().stats();
        c.nacks += s.nacks_sent;
        c.retransmissions += s.retransmissions_sent;
        c.duplicates += s.duplicates;
        c.heartbeats += s.sent.get(&FtmpMsgType::Heartbeat).copied().unwrap_or(0);
        c.heartbeats_suppressed += s.heartbeats_suppressed;
        c.flush_discarded += s.discarded_at_flush;
        c.queue_high_water = c
            .queue_high_water
            .max(nd.engine().layer_totals().romp.queue_high_water);
    }
    c
}

/// Latencies, fingerprint and membership timings from the books.
#[allow(clippy::too_many_arguments)]
fn finish_round<H: Host>(
    ctx: &Shared,
    net: &SimNet<BenchNode<H>>,
    mode: Mode,
    setup_s: f64,
    drive_s: f64,
    counters: Counters,
    store: StoreStats,
    victim: Option<(u32, u64, u64)>,
) -> Round {
    let mut c = ctx.borrow_mut();
    let book = &c.book;
    let mut latencies_us: Vec<u64> = book
        .due_us
        .iter()
        .zip(&book.done_us)
        .filter(|&(&due, &done)| due != NOT_SENT && done != PENDING)
        .map(|(&due, &done)| done - due)
        .collect();
    latencies_us.sort_unstable();
    let mut h = Fnv::new();
    for s in &book.seqs {
        h.u64(s.len() as u64);
        for &op in s {
            h.u64(u64::from(op));
        }
    }
    for &d in &book.done_us {
        h.u64(d);
    }
    let st = net.stats();
    for v in [
        st.sent_packets,
        st.sent_messages,
        st.sent_bytes,
        st.delivered,
        st.lost,
    ] {
        h.u64(v);
    }
    for (at, id, e) in &c.events {
        h.u64(at.as_micros());
        h.u64(u64::from(*id));
        h.bytes(format!("{e:?}").as_bytes());
    }
    let outage_us = victim.and_then(|(_, crash, _)| {
        book.due_us
            .iter()
            .zip(&book.done_us)
            .filter(|&(&due, &done)| due != NOT_SENT && due > crash && done != PENDING)
            .map(|(_, &done)| done - crash)
            .min()
    });
    let rejoin_us = victim.and_then(|(_, _, restart)| Some(book.watch_hit_us? - restart));
    let pgmp = victim.map_or_else(Pgmp::default, |v| pgmp_times(&c.events, v));
    let completed = book.completed as u64;
    let attempted = book.due_us.len() as u64;
    let probe = c.probe.take();
    let capture = probe.as_ref().map_or(0, |p| p.capture_node);
    let capture_views = c
        .events
        .iter()
        .filter_map(|(at, id, e)| match e {
            ProtocolEvent::MembershipChange { group, members, ts } if *id == capture => {
                Some((*at, *group, members.clone(), *ts))
            }
            _ => None,
        })
        .collect();
    Round {
        mode,
        setup_s,
        drive_s,
        attempted,
        completed,
        latencies_us,
        net: st.clone(),
        verdict: Ok(()),
        fingerprint: h.0,
        outage_us,
        rejoin_us,
        pgmp,
        counters,
        store,
        probe,
        capture_groups: Vec::new(),
        capture_views,
        victim,
    }
}

fn pgmp_times(events: &[(SimTime, u32, ProtocolEvent)], victim: (u32, u64, u64)) -> Pgmp {
    let (v, crash, restart) = victim;
    let mut p = Pgmp::default();
    let mut convicted_at: Vec<(u32, u64)> = Vec::new();
    let mut joined_at: Vec<(u32, u64)> = Vec::new();
    for (at, id, e) in events {
        let t = at.as_micros();
        match e {
            ProtocolEvent::FaultReport { processor, .. } => {
                if processor.0 == v && t >= crash && t < restart {
                    p.detect_us = Some(p.detect_us.map_or(t - crash, |d| d.min(t - crash)));
                } else {
                    p.false_convictions += 1;
                }
            }
            ProtocolEvent::MembershipChange { members, .. } if *id != v => {
                let has_victim = members.contains(&ProcessorId(v));
                if !has_victim && t >= crash && !convicted_at.iter().any(|x| x.0 == *id) {
                    convicted_at.push((*id, t - crash));
                }
                if has_victim && t >= restart && !joined_at.iter().any(|x| x.0 == *id) {
                    joined_at.push((*id, t - restart));
                }
            }
            _ => {}
        }
    }
    p.convict_us = convicted_at.iter().map(|x| x.1).max();
    p.join_us = joined_at.iter().map(|x| x.1).max();
    p
}

/// Removes a round's scratch directory when the round ends, however it ends.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The invocation workload: the `OrbWorld` shape — 2 client replicas, 3
/// server replicas each hosting a `Counter` — with a closed loop keeping a
/// fixed number of invocations outstanding. Every invocation is `add(1)`.
fn invoke(spec: &Spec, mode: Mode) -> Result<Round, String> {
    const CLIENTS: u32 = 2;
    const SERVERS: u32 = 3;
    const OUTSTANDING: usize = 8;
    let ops = scaled(20_000, spec.scale);
    let n = CLIENTS + SERVERS;
    let clients: Vec<u32> = (1..=CLIENTS).collect();
    let servers: Vec<u32> = (CLIENTS + 1..=n).collect();
    let all: Vec<u32> = (1..=n).collect();
    let capture = servers[0];
    let ctx = new_ctx(
        mode,
        Book::new(ops, n, 1),
        capture,
        n,
        (CONN_GROUP, &all),
        true,
    );
    let og_server = ObjectGroupId::new(2, 7);
    let conn = ConnectionId::new(ObjectGroupId::new(1, 1), og_server);
    let server_pids: Vec<ProcessorId> = servers.iter().map(|&i| ProcessorId(i)).collect();
    let client_pids: Vec<ProcessorId> = clients.iter().map(|&i| ProcessorId(i)).collect();

    let setup = Instant::now();
    let mut net = new_net::<OrbNode>(SimConfig::with_seed(spec.seed), &ctx);
    for &id in &all {
        let mut proc = Processor::new(ProcessorId(id), proto(spec.seed), ClockMode::Lamport);
        if mode == Mode::Telemetry {
            proc.enable_telemetry();
        }
        let mut orb = OrbEndpoint::new();
        if clients.contains(&id) {
            orb.register_client(conn);
        } else {
            orb.host_replica(
                og_server,
                b"obj".to_vec(),
                Box::new(ftmp_orb::Counter::default()),
            );
            proc.register_server(
                og_server,
                ServerRegistration {
                    processors: server_pids.clone(),
                    pool: vec![(CONN_GROUP, POOL_ADDR)],
                },
                DOMAIN_ADDR,
            );
        }
        net.add_node(id, BenchNode::new(OrbNode::new(proc, orb), id, &ctx));
        net.with_node(id, |nd, now, out| nd.pump(now, out));
    }
    for &id in &clients {
        let cp = client_pids.clone();
        net.with_node(id, move |nd, now, out| {
            nd.engine_mut().open_connection(now, conn, cp, DOMAIN_ADDR);
            nd.pump(now, out);
        });
    }
    let connected = |net: &SimNet<BenchNode<OrbNode>>| {
        all.iter().all(|&id| {
            net.node(id)
                .is_some_and(|nd| nd.engine().connection_group(conn).is_some())
        })
    };
    let mut tries = 0;
    while !connected(&net) {
        tries += 1;
        if tries > 400 {
            return Err("connection establishment did not complete".into());
        }
        let t = net.now() + SimDuration::from_millis(5);
        net.run_until(t);
    }
    let setup_s = setup.elapsed().as_secs_f64();
    if mode == Mode::Setup {
        return Ok(Round::set_up_only(setup_s));
    }
    let capture_groups = vec![(
        CONN_GROUP,
        net.node(capture)
            .and_then(|nd| nd.engine().membership(CONN_GROUP))
            .unwrap_or_default(),
    )];
    // Capture starts with the drive: handshake traffic is set-up.
    if let Some(p) = ctx.borrow_mut().probe.as_mut() {
        p.reset();
    }

    let args = ftmp_orb::servant::encode_i64_arg(1);
    let issue = |net: &mut SimNet<BenchNode<OrbNode>>, k: usize, due: u64| -> Result<(), String> {
        for &c in &clients {
            let num = net
                .with_node(c, |nd, now, out| {
                    nd.invoke(now, out, conn, "add", &args, k as u64 + 1)
                })
                .expect("client exists");
            if num.0 != k as u64 + 1 {
                return Err(format!("client {c} numbered invocation {k} as {}", num.0));
            }
        }
        ctx.borrow_mut().book.due_us[k] = due;
        Ok(())
    };
    // Closed loop: OUTSTANDING invocations in flight; each completion makes
    // the next invocation due at once.
    let first = OUTSTANDING.min(ops);
    let start = net.now().as_micros();
    let drive = Instant::now();
    for k in 0..first {
        issue(&mut net, k, start)?;
    }
    let mut issued = first;
    let mut fresh = Vec::new();
    let mut progress = net.now();
    let traced = mode == Mode::Traced;
    while ctx.borrow().book.completed < ops && net.now() < progress + DRAIN_LIMIT {
        let t0 = Instant::now();
        while ctx.borrow().book.fresh.is_empty() && net.now() < progress + DRAIN_LIMIT {
            net.step();
        }
        if let Some(p) = ctx.borrow_mut().probe.as_mut() {
            p.span(Kind::Run, NO_PARENT, 0, 0, net.now(), t0, Instant::now());
        }
        std::mem::swap(&mut fresh, &mut ctx.borrow_mut().book.fresh);
        if !fresh.is_empty() {
            progress = net.now();
        }
        let now = net.now().as_micros();
        for _ in fresh.drain(..) {
            if issued < ops {
                issue(&mut net, issued, now)?;
                issued += 1;
            }
        }
        if traced {
            sample_peaks(&net, &ctx);
            let deferred = servers
                .iter()
                .chain(&clients)
                .filter_map(|&id| net.node(id).map(|nd| nd.host().deferred_len()))
                .max()
                .unwrap_or(0);
            if let Some(p) = ctx.borrow_mut().probe.as_mut() {
                p.deferred_peak = p.deferred_peak.max(deferred);
            }
        }
    }
    let drive_s = drive.elapsed().as_secs_f64();
    // Settle, untimed: the slower client replica's completions and the
    // remaining replies reach every member before the checks.
    let t = net.now() + SETTLE;
    net.run_until(t);

    let mut counters = counters(&net);
    for &id in &all {
        let (server, client) = net
            .node(id)
            .expect("node")
            .host()
            .orb()
            .suppression_counts();
        counters.server_suppressed += server;
        counters.client_suppressed += client;
    }
    let verdict = finish_checker(&ctx, &all).and_then(|()| {
        let c = ctx.borrow();
        check_agreement(&c.book, &clients)?;
        check_invocations(&c.book, &counters, ops, CLIENTS, SERVERS)
    });
    let mut r = finish_round(
        &ctx,
        &net,
        mode,
        setup_s,
        drive_s,
        counters,
        StoreStats::default(),
        None,
    );
    r.verdict = verdict;
    r.capture_groups = capture_groups;
    Ok(r)
}

/// Every invocation completed once at each client, `add(1)` applied once
/// per invocation in one total order (the replies are exactly 1..=ops), and
/// every duplicate copy suppressed: one request per extra client at each
/// server, one reply per extra server at each client.
fn check_invocations(
    book: &Book,
    counters: &Counters,
    ops: usize,
    clients: u32,
    servers: u32,
) -> Result<(), String> {
    for c in 1..=clients {
        if book.seqs[c as usize - 1].len() != ops {
            return Err(format!(
                "client {c} completed {} of {ops} invocations",
                book.seqs[c as usize - 1].len()
            ));
        }
    }
    let mut values = book.values.clone();
    values.sort_unstable();
    if values.iter().enumerate().any(|(i, &v)| v != i as i64 + 1) {
        return Err("replies are not exactly 1..=ops: add(1) ran out of order or twice".into());
    }
    let ops = ops as u64;
    let want_server = ops * u64::from(servers) * u64::from(clients - 1);
    let want_client = ops * u64::from(clients) * u64::from(servers - 1);
    if counters.server_suppressed != want_server || counters.client_suppressed != want_client {
        return Err(format!(
            "suppressed {} requests (want {want_server}) and {} replies (want {want_client})",
            counters.server_suppressed, counters.client_suppressed
        ));
    }
    Ok(())
}
