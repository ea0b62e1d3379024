//! The benchmark's own determinism contract: the workload seed is the only
//! input; the same seed reproduces every virtual-time figure and count bit
//! for bit under every instrumentation mode; another seed moves latencies
//! but not op counts. Whether a round passes its correctness checks is the
//! benchmark command's gate, not these tests' subject; they only require
//! that the same seed reaches the same verdict.

use ftmp_perfbench::workload::{run_round, Mode, Round, Spec, Workload};
use std::path::PathBuf;

/// Small enough for a test, large enough that the crash-restart schedule
/// still convicts the victim and rejoins it.
const SCALE: f64 = 0.2;

fn spec(workload: Workload, seed: u64) -> Spec {
    Spec {
        workload,
        seed,
        scale: SCALE,
        workdir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-determinism"),
    }
}

fn round(workload: Workload, seed: u64, mode: Mode) -> Round {
    run_round(&spec(workload, seed), mode)
        .unwrap_or_else(|e| panic!("{} seed {seed} {mode:?}: {e}", workload.name()))
}

/// Everything the seed determines, in comparable form.
type Outcome = (u64, u64, u64, Vec<u64>, [u64; 5], Option<u64>, Option<u64>);

fn virtual_outcome(r: &Round) -> Outcome {
    let n = &r.net;
    (
        r.fingerprint,
        r.attempted,
        r.completed,
        r.latencies_us.clone(),
        [
            n.sent_packets,
            n.sent_messages,
            n.sent_bytes,
            n.delivered,
            n.lost,
        ],
        r.outage_us,
        r.rejoin_us,
    )
}

#[test]
fn same_seed_is_bit_identical_in_every_mode() {
    for w in Workload::ALL {
        let reference = virtual_outcome(&round(w, 11, Mode::Checked));
        let plain = round(w, 11, Mode::Plain);
        assert_eq!(
            plain.verdict,
            round(w, 11, Mode::Plain).verdict,
            "{}: same seed, different verdict",
            w.name()
        );
        for r in [
            plain,
            round(w, 11, Mode::Telemetry),
            round(w, 11, Mode::Traced),
        ] {
            assert_eq!(
                virtual_outcome(&r),
                reference,
                "{} {:?} round diverged from the checked round",
                w.name(),
                r.mode
            );
        }
    }
}

#[test]
fn another_seed_moves_latencies_but_not_op_counts() {
    for w in Workload::ALL {
        let a = round(w, 11, Mode::Plain);
        let b = round(w, 12, Mode::Plain);
        assert_eq!(
            a.attempted,
            b.attempted,
            "{}: op count depends on the seed",
            w.name()
        );
        assert_ne!(
            a.latencies_us,
            b.latencies_us,
            "{}: latencies ignore the seed",
            w.name()
        );
        assert_ne!(
            a.fingerprint,
            b.fingerprint,
            "{}: outcome ignores the seed",
            w.name()
        );
    }
}

#[test]
fn flood_replay_reproduces_the_capture_nodes_deliveries() {
    let r = round(Workload::Flood, 11, Mode::Traced);
    let rep = ftmp_perfbench::replay::replay(&r);
    assert_eq!(
        rep.delivered, r.completed,
        "replayed ROMP delivered every op once"
    );
    assert!(rep.decode_ns > 0 && rep.rmp_ns > 0 && rep.romp_ns > 0 && rep.pack_ns > 0);
    let probe = r.probe.as_ref().expect("traced round keeps its probe");
    assert!(
        probe.spans.len() as u64 > r.completed,
        "spans recorded per op"
    );
}
