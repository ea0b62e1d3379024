//! Isolated layer replays over the traffic a traced round captured at one
//! receiver: the codec (`unpack` + `decode_shared`, and re-encode), the
//! `Packer`, `RmpLayer::handle`, `RompLayer::handle` + `deliverable`, and
//! GIOP decoding of the delivered payloads.
//!
//! A first, untimed pass routes every captured message through RMP and ROMP
//! the way the processor shell does and records each layer's input stream
//! (plus the hold times and repair outcomes). Each layer is then timed
//! alone on its own recorded stream, so no layer's clock reads land inside
//! another's figure. Membership views the receiver installed are replayed
//! at their virtual times as horizon removals and additions.

use crate::workload::Round;
use bytes::Bytes;
use ftmp_cdr::{ByteOrder, CdrWriter};
use ftmp_core::rmp::{RmpInput, RmpLayer, RmpOutput};
use ftmp_core::romp::{RompInput, RompLayer};
use ftmp_core::wire::{self, AckVector, FtmpBody, FtmpMessage, FtmpMsgType};
use ftmp_core::{GroupId, PackPolicy, Packer, ProcessorId, Timestamp};
use ftmp_net::{McastAddr, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Each timed pass runs this many times; the median counts.
const REPS: usize = 3;

/// What the replays measured.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Messages they carried.
    pub msgs: u64,
    /// `unpack` + `decode_shared` over every captured datagram, ns.
    pub decode_ns: u64,
    /// Re-encoding every decoded message, ns.
    pub encode_ns: u64,
    /// Messages the receiver itself transmitted, pushed through a
    /// standalone `Packer`.
    pub pack_msgs: u64,
    /// Wall time of those pushes and flushes, ns.
    pub pack_ns: u64,
    /// Inputs `RmpLayer::handle` consumed.
    pub rmp_inputs: u64,
    /// Wall time of the RMP pass, ns.
    pub rmp_ns: u64,
    /// Inputs `RompLayer::handle` consumed.
    pub romp_inputs: u64,
    /// Wall time of the ROMP pass, ns.
    pub romp_ns: u64,
    /// Arrival → source-order release, one sample per released message, µs.
    pub gap_hold_us: Vec<u64>,
    /// Source-order release → ordered delivery, one per delivery, µs.
    pub order_hold_us: Vec<u64>,
    /// Ordered deliveries the replay made.
    pub delivered: u64,
    /// Messages received with the retransmission flag.
    pub repairs: u64,
    /// Of those, the ones that were not duplicates.
    pub useful_repairs: u64,
    /// Delivered payloads that decoded as GIOP.
    pub giop_msgs: u64,
    /// Wall time decoding them, ns.
    pub giop_ns: u64,
    /// Suspicions, named in Suspect messages the receiver saw, of a member
    /// that had not crashed.
    pub false_suspicions: u64,
}

/// One step of a layer's recorded input stream.
enum Step {
    Msg(SimTime, FtmpMessage, Bytes),
    Acks(AckVector),
    View(GroupId, Vec<ProcessorId>, Timestamp),
}

/// RMP's recorded stream, replayed verbatim by [`time_rmp`].
enum RmpStep {
    Reliable(GroupId, FtmpMessage, Bytes),
    Header(GroupId, ProcessorId, ftmp_core::SeqNum),
    Reclaim(GroupId, Timestamp),
    Seed(GroupId, ProcessorId, u64),
}

/// ROMP's recorded stream, replayed verbatim by [`time_romp`].
enum RompStep {
    Ordered(GroupId, FtmpMessage),
    Evidence(GroupId, ProcessorId, Timestamp, Timestamp, bool),
    Ack(GroupId, ProcessorId, Timestamp),
    Deliver(GroupId),
    Remove(GroupId, ProcessorId),
    Add(GroupId, ProcessorId, Timestamp),
}

fn median_ns(mut runs: Vec<u64>) -> u64 {
    runs.sort_unstable();
    runs[runs.len() / 2]
}

fn time_reps(mut pass: impl FnMut() -> u64) -> u64 {
    median_ns((0..REPS).map(|_| pass()).collect())
}

fn decode_datagram(d: &Bytes, out: &mut Vec<(FtmpMessage, Bytes)>, acks: &mut Vec<AckVector>) {
    if wire::is_packed(d) {
        if let Ok((slices, vector)) = wire::unpack(d) {
            for s in slices {
                if let Ok(m) = FtmpMessage::decode_shared(&s) {
                    out.push((m, s));
                }
            }
            acks.extend(vector);
        }
    } else if let Ok(m) = FtmpMessage::decode_shared(d) {
        out.push((m, d.clone()));
    }
}

/// Run every replay over a traced round's capture.
pub fn replay(round: &Round) -> Replay {
    let probe = round.probe.as_ref().expect("replay needs a traced round");
    // Codec: unpack + decode_shared, timed over the whole capture.
    let decode_ns = time_reps(|| {
        let mut msgs = Vec::with_capacity(probe.arrivals.len());
        let mut acks = Vec::new();
        let t = Instant::now();
        for (_, d) in &probe.arrivals {
            decode_datagram(d, &mut msgs, &mut acks);
        }
        let ns = t.elapsed().as_nanos() as u64;
        black_box((msgs, acks));
        ns
    });
    let mut r = Replay {
        decode_ns,
        ..Replay::default()
    };
    let mut steps = Vec::new();
    for (at, d) in &probe.arrivals {
        let mut msgs = Vec::new();
        let mut acks = Vec::new();
        decode_datagram(d, &mut msgs, &mut acks);
        steps.extend(acks.into_iter().map(Step::Acks));
        r.msgs += msgs.len() as u64;
        steps.extend(msgs.into_iter().map(|(m, w)| Step::Msg(*at, m, w)));
    }
    let decoded: Vec<&FtmpMessage> = steps
        .iter()
        .filter_map(|s| match s {
            Step::Msg(_, m, _) => Some(m),
            _ => None,
        })
        .collect();
    r.encode_ns = time_reps(|| {
        let mut scratch = CdrWriter::new(ByteOrder::native());
        let t = Instant::now();
        for m in &decoded {
            black_box(m.encode_with_scratch(ByteOrder::native(), &mut scratch));
        }
        t.elapsed().as_nanos() as u64
    });
    drop(decoded);
    let steps = interleave_views(steps, round);

    // Packer: the receiver's own outgoing messages, pushed at the virtual
    // times they left.
    let mut outgoing: Vec<(SimTime, McastAddr, Bytes)> = Vec::new();
    for (at, addr, d) in &probe.sent {
        if wire::is_packed(d) {
            if let Ok((slices, _)) = wire::unpack(d) {
                outgoing.extend(slices.into_iter().map(|s| (*at, *addr, s)));
            }
        } else {
            outgoing.push((*at, *addr, d.clone()));
        }
    }
    r.pack_msgs = outgoing.len() as u64;
    r.pack_ns = time_reps(|| {
        let items = outgoing.clone();
        let mut packer = Packer::new(1400, PackPolicy::Deadline(SimDuration::from_micros(500)));
        let mut emitted = 0u64;
        let mut emit = |_: McastAddr, b: Bytes| emitted += b.len() as u64;
        let t = Instant::now();
        for (at, addr, msg) in items {
            for a in packer.due(at) {
                packer.flush_addr(a, None, &mut emit);
            }
            packer.push(at, addr, msg, &mut emit);
        }
        for a in packer.pending() {
            packer.flush_addr(a, None, &mut emit);
        }
        let ns = t.elapsed().as_nanos() as u64;
        black_box(emitted);
        ns
    });

    // RMP → ROMP, untimed, recording each layer's input stream.
    let (rmp_steps, romp_steps) = route(&steps, round, &mut r);
    r.rmp_inputs = rmp_steps.len() as u64;
    r.romp_inputs = romp_steps.len() as u64;
    r.rmp_ns = time_reps(|| time_rmp(&rmp_steps, round));
    r.romp_ns = time_reps(|| time_romp(&romp_steps, round));

    // GIOP decoding of the delivered payloads.
    let payloads: Vec<&Bytes> = romp_steps
        .iter()
        .filter_map(|s| match s {
            RompStep::Ordered(
                _,
                FtmpMessage {
                    body: FtmpBody::Regular { giop, .. },
                    ..
                },
            ) => Some(giop),
            _ => None,
        })
        .collect();
    r.giop_msgs = payloads
        .iter()
        .filter(|p| ftmp_giop::GiopMessage::decode(p).is_ok())
        .count() as u64;
    if r.giop_msgs > 0 {
        r.giop_ns = time_reps(|| {
            let t = Instant::now();
            for p in &payloads {
                let _ = black_box(ftmp_giop::GiopMessage::decode(p));
            }
            t.elapsed().as_nanos() as u64
        });
    }
    r
}

/// Splice the receiver's view installations into the message stream at
/// their virtual times (after every message of the same instant).
fn interleave_views(steps: Vec<Step>, round: &Round) -> Vec<Step> {
    let mut views = round.capture_views.iter().peekable();
    let mut out = Vec::with_capacity(steps.len() + round.capture_views.len());
    for s in steps {
        if let Step::Msg(at, ..) = &s {
            while let Some((vt, g, m, ts)) = views.peek() {
                if vt >= at {
                    break;
                }
                out.push(Step::View(*g, m.clone(), *ts));
                views.next();
            }
        }
        out.push(s);
    }
    out.extend(views.map(|(_, g, m, ts)| Step::View(*g, m.clone(), *ts)));
    out
}

fn fresh_layers(round: &Round) -> BTreeMap<GroupId, (RmpLayer, RompLayer)> {
    let capture = round.probe.as_ref().map_or(0, |p| p.capture_node);
    round
        .capture_groups
        .iter()
        .map(|(g, members)| {
            let rmp = RmpLayer::new(ProcessorId(capture));
            let romp = RompLayer::new(members.iter().copied(), Timestamp(0));
            (*g, (rmp, romp))
        })
        .collect()
}

/// Receive windows for sources whose first captured sequence number is
/// past 1 (capture began after set-up traffic) start there.
fn window_starts(steps: &[Step]) -> Vec<RmpStep> {
    let mut first: BTreeMap<(GroupId, ProcessorId), u64> = BTreeMap::new();
    for s in steps {
        if let Step::Msg(_, m, _) = s {
            if m.msg_type().is_reliable() {
                let e = first.entry((m.group, m.source)).or_insert(m.seq.0);
                *e = (*e).min(m.seq.0);
            }
        }
    }
    first
        .into_iter()
        .filter(|&(_, seq)| seq > 1)
        .map(|((g, p), seq)| RmpStep::Seed(g, p, seq))
        .collect()
}

/// The untimed routing pass: RMP releases feed ROMP, header evidence feeds
/// both, exactly as the processor shell routes them. Records both layers'
/// input streams and the hold times, repairs and suspicions on the way.
fn route(steps: &[Step], round: &Round, r: &mut Replay) -> (Vec<RmpStep>, Vec<RompStep>) {
    type Key = (GroupId, ProcessorId, u64);
    let mut layers = fresh_layers(round);
    let mut members: BTreeMap<GroupId, BTreeSet<ProcessorId>> = round
        .capture_groups
        .iter()
        .map(|(g, m)| (*g, m.iter().copied().collect()))
        .collect();
    let mut rmp_steps = window_starts(steps);
    for s in &rmp_steps {
        if let RmpStep::Seed(g, p, seq) = s {
            if let Some((rmp, _)) = layers.get_mut(g) {
                rmp.seed_window(*p, *seq);
            }
        }
    }
    let mut romp_steps = Vec::new();
    let mut arrived: HashMap<Key, u64> = HashMap::new();
    let mut released: HashMap<Key, u64> = HashMap::new();
    let mut stable: BTreeMap<GroupId, Timestamp> = BTreeMap::new();
    // A suspicion of the crashed member after its crash is a true one.
    let was_down = |p: ProcessorId, t: u64| {
        round
            .victim
            .is_some_and(|(v, crash, _)| p.0 == v && t >= crash)
    };
    for s in steps {
        let (g, t) = match s {
            Step::View(g, new, ts) => {
                let (Some((rmp, romp)), Some(old)) = (layers.get_mut(g), members.get_mut(g)) else {
                    continue;
                };
                let new: BTreeSet<ProcessorId> = new.iter().copied().collect();
                for &p in old.difference(&new) {
                    romp.ordering_mut().remove_member(p);
                    romp_steps.push(RompStep::Remove(*g, p));
                }
                for &p in new.difference(old) {
                    // A re-added id starts a new incarnation whose sequence
                    // numbers restart at 1: forget the old one's holds.
                    arrived.retain(|k, _| (k.0, k.1) != (*g, p));
                    released.retain(|k, _| (k.0, k.1) != (*g, p));
                    romp.ordering_mut().add_member(p, *ts);
                    romp_steps.push(RompStep::Add(*g, p, *ts));
                    rmp.seed_window(p, 1);
                    rmp_steps.push(RmpStep::Seed(*g, p, 1));
                }
                *old = new;
                continue;
            }
            Step::Acks(v) => {
                if let Some((_, romp)) = layers.get_mut(&v.group) {
                    for &(p, ack) in &v.entries {
                        romp.ordering_mut().record_ack(p, ack);
                        romp_steps.push(RompStep::Ack(v.group, p, ack));
                    }
                }
                continue;
            }
            Step::Msg(at, m, w) => {
                let g = m.group;
                let t = at.as_micros();
                let Some((rmp, romp)) = layers.get_mut(&g) else {
                    continue;
                };
                match m.msg_type() {
                    FtmpMsgType::ConnectRequest => continue,
                    FtmpMsgType::Heartbeat
                    | FtmpMsgType::RetransmitRequest
                    | FtmpMsgType::OverlayDigest => {
                        rmp_steps.push(RmpStep::Header(g, m.source, m.seq));
                        let contiguous = match rmp.handle(RmpInput::HeaderSeq {
                            source: m.source,
                            seq: m.seq,
                        }) {
                            RmpOutput::Noted { contiguous } => contiguous,
                            _ => unreachable!("HeaderSeq input yields Noted"),
                        };
                        let advance = contiguous >= m.seq.0;
                        romp.handle(RompInput::Evidence {
                            source: m.source,
                            ts: m.ts,
                            ack_ts: m.ack_ts,
                            advance,
                        });
                        romp_steps.push(RompStep::Evidence(g, m.source, m.ts, m.ack_ts, advance));
                    }
                    _ => {
                        arrived.entry((g, m.source, m.seq.0)).or_insert(t);
                        r.repairs += u64::from(m.retransmission);
                        rmp_steps.push(RmpStep::Reliable(g, m.clone(), w.clone()));
                        let out = rmp.handle(RmpInput::Reliable {
                            msg: m.clone(),
                            wire: w.clone(),
                            own: false,
                        });
                        if !matches!(out, RmpOutput::Duplicate) {
                            r.useful_repairs += u64::from(m.retransmission);
                            if let FtmpBody::Suspect { suspects, .. } = &m.body {
                                r.false_suspicions +=
                                    suspects.iter().filter(|&&p| !was_down(p, t)).count() as u64;
                            }
                        }
                        if let RmpOutput::Released(run) = out {
                            for x in run {
                                let k = (g, x.source, x.seq.0);
                                let first = arrived.remove(&k).unwrap_or(t);
                                r.gap_hold_us.push(t - first);
                                released.insert(k, t);
                                romp_steps.push(RompStep::Ordered(g, x.clone()));
                                romp.handle(RompInput::SourceOrdered(x));
                            }
                        }
                    }
                }
                (g, t)
            }
        };
        let (rmp, romp) = layers.get_mut(&g).expect("routed group");
        romp_steps.push(RompStep::Deliver(g));
        for d in romp.deliverable() {
            if let Some(at) = released.remove(&(g, d.source, d.seq.0)) {
                r.order_hold_us.push(t - at);
            }
            r.delivered += 1;
        }
        let st = romp.ordering().stable_ts();
        if stable.get(&g) != Some(&st) {
            stable.insert(g, st);
            rmp.retention_mut().reclaim_stable(st);
            rmp_steps.push(RmpStep::Reclaim(g, st));
        }
    }
    r.gap_hold_us.sort_unstable();
    r.order_hold_us.sort_unstable();
    (rmp_steps, romp_steps)
}

/// `RmpLayer::handle` (plus seeding and reclamation) over RMP's recorded
/// stream, on fresh layers; returns wall ns.
fn time_rmp(steps: &[RmpStep], round: &Round) -> u64 {
    enum Op {
        In(GroupId, RmpInput),
        Reclaim(GroupId, Timestamp),
        Seed(GroupId, ProcessorId, u64),
    }
    let ops: Vec<Op> = steps
        .iter()
        .map(|s| match s {
            RmpStep::Reliable(g, m, w) => Op::In(
                *g,
                RmpInput::Reliable {
                    msg: m.clone(),
                    wire: w.clone(),
                    own: false,
                },
            ),
            RmpStep::Header(g, source, seq) => Op::In(
                *g,
                RmpInput::HeaderSeq {
                    source: *source,
                    seq: *seq,
                },
            ),
            RmpStep::Reclaim(g, ts) => Op::Reclaim(*g, *ts),
            RmpStep::Seed(g, p, seq) => Op::Seed(*g, *p, *seq),
        })
        .collect();
    let mut layers = fresh_layers(round);
    let t = Instant::now();
    for op in ops {
        match op {
            Op::In(g, input) => {
                if let Some((rmp, _)) = layers.get_mut(&g) {
                    black_box(rmp.handle(input));
                }
            }
            Op::Reclaim(g, ts) => {
                if let Some((rmp, _)) = layers.get_mut(&g) {
                    black_box(rmp.retention_mut().reclaim_stable(ts));
                }
            }
            Op::Seed(g, p, seq) => {
                if let Some((rmp, _)) = layers.get_mut(&g) {
                    rmp.seed_window(p, seq);
                }
            }
        }
    }
    t.elapsed().as_nanos() as u64
}

/// `RompLayer::handle` + `deliverable` over ROMP's recorded stream, on
/// fresh layers; returns wall ns.
fn time_romp(steps: &[RompStep], round: &Round) -> u64 {
    enum Op {
        In(GroupId, RompInput),
        Ack(GroupId, ProcessorId, Timestamp),
        Deliver(GroupId),
        Remove(GroupId, ProcessorId),
        Add(GroupId, ProcessorId, Timestamp),
    }
    let ops: Vec<Op> = steps
        .iter()
        .map(|s| match s {
            RompStep::Ordered(g, m) => Op::In(*g, RompInput::SourceOrdered(m.clone())),
            RompStep::Evidence(g, source, ts, ack_ts, advance) => Op::In(
                *g,
                RompInput::Evidence {
                    source: *source,
                    ts: *ts,
                    ack_ts: *ack_ts,
                    advance: *advance,
                },
            ),
            RompStep::Ack(g, p, ts) => Op::Ack(*g, *p, *ts),
            RompStep::Deliver(g) => Op::Deliver(*g),
            RompStep::Remove(g, p) => Op::Remove(*g, *p),
            RompStep::Add(g, p, ts) => Op::Add(*g, *p, *ts),
        })
        .collect();
    let mut layers = fresh_layers(round);
    let t = Instant::now();
    for op in ops {
        let g = match &op {
            Op::In(g, _) | Op::Ack(g, ..) | Op::Deliver(g) | Op::Remove(g, _) | Op::Add(g, ..) => {
                *g
            }
        };
        let Some((_, romp)) = layers.get_mut(&g) else {
            continue;
        };
        match op {
            Op::In(_, input) => {
                black_box(romp.handle(input));
            }
            Op::Ack(_, p, ts) => romp.ordering_mut().record_ack(p, ts),
            Op::Deliver(_) => {
                black_box(romp.deliverable());
            }
            Op::Remove(_, p) => romp.ordering_mut().remove_member(p),
            Op::Add(_, p, ts) => romp.ordering_mut().add_member(p, ts),
        }
    }
    t.elapsed().as_nanos() as u64
}
