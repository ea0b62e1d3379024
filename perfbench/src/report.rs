//! Rounds → named metrics with units.
//!
//! Virtual-time figures come from the checked round (every other round of
//! the run reproduced it bit for bit); wall-time figures are medians over
//! the rounds of one instrumentation mode.

use crate::replay::Replay;
use crate::stats::{median, quantile};
use crate::trace::{Kind, Probe};
use crate::workload::{Round, Workload};

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn median_of(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// The end-to-end metrics: `checked` gives the virtual-time figures;
/// `ops_per_s` (one per plain round) and `setups` (set-up-only builds, s)
/// give the wall-time medians, already scaled to the reference rate.
pub fn end_to_end(
    checked: &Round,
    ops_per_s: &[f64],
    setups: &[f64],
    peak_rss_mb: f64,
) -> Result<Vec<Metric>, String> {
    let lat = &checked.latencies_us;
    let ops = checked.completed as f64;
    Ok(vec![
        m("ops_per_s", "1/s", median(ops_per_s)),
        m("latency_p50_us", "us", quantile(lat, 0.5)? as f64),
        m("latency_p99_us", "us", quantile(lat, 0.99)? as f64),
        m("latency_p999_us", "us", quantile(lat, 0.999)? as f64),
        m(
            "datagrams_per_op",
            "count",
            ratio(checked.net.sent_packets as f64, ops),
        ),
        m(
            "wire_bytes_per_op",
            "bytes",
            ratio(checked.net.sent_bytes as f64, ops),
        ),
        m("setup_s", "s", median(setups)),
        m("peak_rss_mb", "MiB", peak_rss_mb),
    ])
}

/// Self time per kind: a span's duration minus its pump child's.
fn self_ns(p: &Probe) -> [u64; 7] {
    let mut child = [0u64; 7];
    for s in &p.spans {
        if s.kind == Kind::Pump as u8 {
            if let Some(parent) = p.spans.get(s.parent as usize) {
                child[parent.kind as usize] += u64::from(s.dur_ns);
            }
        }
    }
    let mut out = [0u64; 7];
    for k in [
        Kind::Send,
        Kind::Packet,
        Kind::Pump,
        Kind::Tick,
        Kind::Deliver,
        Kind::Run,
        Kind::App,
    ] {
        out[k as usize] = p.total(k).ns.saturating_sub(child[k as usize]);
    }
    out
}

/// The per-layer metrics of a traced run. `traced` is the round whose
/// spans and capture `replay` measured; `plain`, `telemetry` and
/// `traced_all` give the instrumentation-overhead ratios.
pub fn per_layer(
    workload: Workload,
    checked: &Round,
    traced: &Round,
    replay: &Replay,
    plain: &[&Round],
    telemetry: &[&Round],
    traced_all: &[&Round],
) -> Result<Vec<Metric>, String> {
    let p = traced
        .probe
        .as_ref()
        .ok_or("per-layer metrics need a traced round")?;
    let ops = checked.completed as f64;
    let c = &checked.counters;
    let net = &checked.net;
    let own = self_ns(p);
    let per_call = |k: Kind| ratio(own[k as usize] as f64, p.total(k).calls as f64);
    let wall = traced.drive_s * 1e9;
    let run = p.total(Kind::Run).ns as f64;
    let callbacks =
        (p.total(Kind::Packet).ns + p.total(Kind::Tick).ns + p.total(Kind::App).ns) as f64;
    let covered = run + p.total(Kind::Send).ns as f64 - p.total(Kind::App).ns as f64;
    let plain_ops = median_of(plain, Round::ops_per_s);
    let pct = |v: &[u64], q: f64| -> Result<f64, String> {
        if v.is_empty() {
            Ok(0.0)
        } else {
            quantile(v, q).map(|x| x as f64)
        }
    };
    let ms = |us: Option<u64>| us.map_or(0.0, |u| u as f64 / 1_000.0);
    let store = &traced.store;
    Ok(vec![
        // net
        m("net.self_ns_per_op", "ns", ratio(run - callbacks, ops)),
        m(
            "net.receptions_per_op",
            "count",
            ratio(net.delivered as f64, ops),
        ),
        m("net.lost_per_op", "count", ratio(net.lost as f64, ops)),
        // processor
        m("processor.send_ns", "ns", per_call(Kind::Send)),
        m("processor.packet_ns", "ns", per_call(Kind::Packet)),
        m(
            "processor.packets_per_op",
            "count",
            ratio(p.total(Kind::Packet).calls as f64, ops),
        ),
        m("processor.pump_ns", "ns", per_call(Kind::Pump)),
        m("processor.tick_ns", "ns", per_call(Kind::Tick)),
        m(
            "processor.tick_share",
            "ratio",
            ratio(p.total(Kind::Tick).ns as f64, wall),
        ),
        // wire
        m(
            "wire.decode_ns_per_msg",
            "ns",
            ratio(replay.decode_ns as f64, replay.msgs as f64),
        ),
        m(
            "wire.encode_ns_per_msg",
            "ns",
            ratio(replay.encode_ns as f64, replay.msgs as f64),
        ),
        m(
            "wire.bytes_per_msg",
            "bytes",
            ratio(net.sent_bytes as f64, net.sent_messages as f64),
        ),
        // pack
        m(
            "pack.msgs_per_datagram",
            "count",
            ratio(net.sent_messages as f64, net.sent_packets as f64),
        ),
        m(
            "pack.push_ns_per_msg",
            "ns",
            ratio(replay.pack_ns as f64, replay.pack_msgs as f64),
        ),
        m(
            "pack.heartbeats_suppressed_ratio",
            "ratio",
            ratio(
                c.heartbeats_suppressed as f64,
                (c.heartbeats_suppressed + c.heartbeats) as f64,
            ),
        ),
        // rmp
        m(
            "rmp.handle_ns_per_msg",
            "ns",
            ratio(replay.rmp_ns as f64, replay.rmp_inputs as f64),
        ),
        m("rmp.gap_hold_p99_us", "us", pct(&replay.gap_hold_us, 0.99)?),
        m("rmp.nacks_per_op", "count", ratio(c.nacks as f64, ops)),
        m(
            "rmp.retransmissions_per_op",
            "count",
            ratio(c.retransmissions as f64, ops),
        ),
        m(
            "rmp.duplicates_per_op",
            "count",
            ratio(c.duplicates as f64, ops),
        ),
        m(
            "rmp.repair_useful_ratio",
            "ratio",
            ratio(replay.useful_repairs as f64, replay.repairs as f64),
        ),
        m("rmp.retention_peak_msgs", "count", p.retention_peak as f64),
        // romp
        m(
            "romp.handle_ns_per_msg",
            "ns",
            ratio(replay.romp_ns as f64, replay.romp_inputs as f64),
        ),
        m(
            "romp.order_hold_p50_us",
            "us",
            pct(&replay.order_hold_us, 0.5)?,
        ),
        m(
            "romp.order_hold_p99_us",
            "us",
            pct(&replay.order_hold_us, 0.99)?,
        ),
        m("romp.queue_high_water", "count", c.queue_high_water as f64),
        m(
            "romp.heartbeats_per_op",
            "count",
            ratio(c.heartbeats as f64, ops),
        ),
        // pgmp
        m("pgmp.detect_ms", "ms", ms(checked.pgmp.detect_us)),
        m("pgmp.convict_ms", "ms", ms(checked.pgmp.convict_us)),
        m("pgmp.join_ms", "ms", ms(checked.pgmp.join_us)),
        m(
            "pgmp.false_suspicions",
            "count",
            (replay.false_suspicions + checked.pgmp.false_convictions) as f64,
        ),
        m("pgmp.flush_discarded", "count", c.flush_discarded as f64),
        // orb
        m(
            "orb.pump_ns_per_invocation",
            "ns",
            if workload == Workload::Invoke {
                ratio(p.total(Kind::Pump).ns as f64, ops)
            } else {
                0.0
            },
        ),
        m(
            "orb.giop_decode_ns",
            "ns",
            ratio(replay.giop_ns as f64, replay.giop_msgs as f64),
        ),
        m(
            "orb.suppressed_per_invocation",
            "count",
            ratio((c.server_suppressed + c.client_suppressed) as f64, ops),
        ),
        m("orb.deferred_peak", "count", p.deferred_peak as f64),
        // store
        m(
            "store.append_ns",
            "ns",
            ratio(store.append_ns as f64, store.appends as f64),
        ),
        m("store.recover_ms", "ms", store.recover_ms),
        m(
            "store.records_recovered",
            "count",
            store.records_recovered as f64,
        ),
        // instrumentation
        m(
            "telemetry.overhead_ratio",
            "ratio",
            ratio(plain_ops, median_of(telemetry, Round::ops_per_s)),
        ),
        m(
            "trace.overhead_ratio",
            "ratio",
            ratio(plain_ops, median_of(traced_all, Round::ops_per_s)),
        ),
        m(
            "trace.unattributed_share",
            "ratio",
            ratio(wall - covered, wall),
        ),
        m(
            "trace.packet_replay_share",
            "ratio",
            ratio(
                (replay.decode_ns + replay.rmp_ns + replay.romp_ns) as f64,
                p.capture_packet_ns as f64,
            ),
        ),
        m("trace.spans", "count", p.spans.len() as f64),
        // end-to-end figures that only some workloads have
        m("outage_ms", "ms", ms(checked.outage_us)),
        m("rejoin_ms", "ms", ms(checked.rejoin_us)),
        m(
            "failed_ratio",
            "ratio",
            ratio(checked.failed() as f64, checked.attempted as f64),
        ),
    ])
}
