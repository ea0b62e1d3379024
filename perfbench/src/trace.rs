//! The traced run's recorder: spans at every layer boundary the benchmark
//! calls into, per-kind wall-time totals, and the traffic capture the
//! isolated layer replays feed on.
//!
//! Spans stay in memory for the whole round and are written out once, at
//! the end ([`Probe::write_spans`]). Every span carries both clocks: wall
//! time (for CPU self time) and the virtual time of the simulator step it
//! ran in (for hold times along one op's journey).

use bytes::Bytes;
use ftmp_net::{McastAddr, SimTime};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// `Span::parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// A send entry point: `Processor::multicast_request` (open loops) or
    /// `OrbNode::invoke` (the invocation workload). Root span.
    Send = 0,
    /// `Processor::handle_packet` at one receiver; parent is the span whose
    /// pump transmitted the datagram.
    Packet = 1,
    /// Draining the engine's actions into the network and the application:
    /// `SimProcessor::pump_at` or `OrbNode::pump`.
    Pump = 2,
    /// `Processor::tick`.
    Tick = 3,
    /// An ordered delivery (or, for invocations, a completion) handed to the
    /// application. Zero wall duration; parent is the pump that produced it.
    Deliver = 4,
    /// `SimNet::run_until`/`step`: the network itself plus every node
    /// callback it makes. Root span.
    Run = 5,
    /// The application's own bookkeeping of deliveries, inside a node
    /// callback but outside the protocol stack.
    App = 6,
}

const KINDS: usize = 7;

/// One recorded span (28 bytes on disk, little-endian, in field order).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Index of the causing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The op this span serves: the request number, 0 when the span is not
    /// tied to one op (packets, ticks, pumps, network runs).
    pub op: u32,
    /// Wall-clock start, ns since the round's probe was created.
    pub start_ns: u64,
    /// Wall-clock duration in ns.
    pub dur_ns: u32,
    /// Virtual time of the simulator step, µs.
    pub virt_us: u32,
    /// The node it ran on (0 for network runs).
    pub node: u8,
    /// [`Kind`] as its discriminant.
    pub kind: u8,
}

/// Wall-time total and call count of one [`Kind`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Total {
    /// Summed wall time, ns.
    pub ns: u64,
    /// Number of spans.
    pub calls: u64,
}

/// The traced round's recorder.
pub struct Probe {
    epoch: Instant,
    /// All spans, in the order they closed.
    pub spans: Vec<Span>,
    totals: [Total; KINDS],
    /// Per node: the span whose pump emitted that node's latest datagrams.
    last_pump: Vec<u32>,
    /// Datagram buffer address → the span that transmitted it.
    sent_by: HashMap<usize, u32>,
    /// The node whose traffic is captured for the isolated replays.
    pub capture_node: u32,
    /// Captured datagrams arriving at the capture node.
    pub arrivals: Vec<(SimTime, Bytes)>,
    /// Captured datagrams the capture node transmitted.
    pub sent: Vec<(SimTime, McastAddr, Bytes)>,
    /// `handle_packet` wall time at the capture node alone, ns.
    pub capture_packet_ns: u64,
    /// Peak retention (messages held for repair) sampled at any node.
    pub retention_peak: usize,
    /// Peak ORB deferred-queue length sampled at any node.
    pub deferred_peak: usize,
}

impl Probe {
    /// A fresh probe capturing traffic at `capture_node`.
    pub fn new(capture_node: u32, nodes: u32) -> Self {
        Probe {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 20),
            totals: [Total::default(); KINDS],
            last_pump: vec![NO_PARENT; nodes as usize + 1],
            sent_by: HashMap::new(),
            capture_node,
            arrivals: Vec::new(),
            sent: Vec::new(),
            capture_packet_ns: 0,
            retention_peak: 0,
            deferred_peak: 0,
        }
    }

    /// Forget everything recorded so far: the drive starts here, and the
    /// set-up traffic before it is not measured.
    pub fn reset(&mut self) {
        *self = Probe::new(self.capture_node, self.last_pump.len() as u32 - 1);
    }

    /// Wall-time total of one kind.
    pub fn total(&self, k: Kind) -> Total {
        self.totals[k as usize]
    }

    /// Record a span; returns its index.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        kind: Kind,
        parent: u32,
        op: u64,
        node: u32,
        now: SimTime,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let dur = end.duration_since(start).as_nanos() as u64;
        let t = &mut self.totals[kind as usize];
        t.ns += dur;
        t.calls += 1;
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            parent,
            op: op as u32,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: dur.min(u64::from(u32::MAX)) as u32,
            virt_us: now.as_micros() as u32,
            node: node as u8,
            kind: kind as u8,
        });
        id
    }

    /// Remember `pump` as the span that emits `node`'s next datagrams.
    pub fn set_pump(&mut self, node: u32, pump: u32) {
        self.last_pump[node as usize] = pump;
    }

    /// Wire tap: a datagram left `src`. Links it to the span that emitted
    /// it and captures it when `src` is the capture node.
    pub fn on_wire(&mut self, at: SimTime, src: u32, dst: McastAddr, payload: &[u8]) {
        let cause = self.last_pump[src as usize];
        self.sent_by.insert(payload.as_ptr() as usize, cause);
        if src == self.capture_node {
            self.sent.push((at, dst, Bytes::copy_from_slice(payload)));
        }
    }

    /// The span that transmitted the datagram in `payload`.
    pub fn cause_of(&self, payload: &Bytes) -> u32 {
        self.sent_by
            .get(&(payload.as_ptr() as usize))
            .copied()
            .unwrap_or(NO_PARENT)
    }

    /// Write every span to `path`: an 8-byte magic `FTMPSPN1`, the span
    /// count as u64, then one 28-byte little-endian record per span.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        w.write_all(b"FTMPSPN1")?;
        w.write_all(&(self.spans.len() as u64).to_le_bytes())?;
        for s in &self.spans {
            w.write_all(&s.parent.to_le_bytes())?;
            w.write_all(&s.op.to_le_bytes())?;
            w.write_all(&s.start_ns.to_le_bytes())?;
            w.write_all(&s.dur_ns.to_le_bytes())?;
            w.write_all(&s.virt_us.to_le_bytes())?;
            w.write_all(&[s.node, s.kind, 0, 0])?;
        }
        w.flush()
    }
}
