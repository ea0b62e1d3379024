//! `ftmp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs timed rounds of one seed until `--seconds` have passed since the
//! start, then one checked round (all seven oracles attached); every round
//! must reproduce the first one's virtual-time outcome bit for bit. Prints the per-run record and a metric table, then, as the last
//! line, one JSON object: the end-to-end metrics, or with `--trace 1` the
//! per-layer ones. Any failed check exits non-zero without printing a
//! result.

use ftmp_perfbench::replay::replay;
use ftmp_perfbench::report::{end_to_end, per_layer, Metric};
use ftmp_perfbench::workload::{run_round, Mode, Round, Spec, Workload};
use ftmp_perfbench::{calib, stats, sys};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Where durable logs and span files go, relative to the working directory.
const WORKDIR: &str = ".bench_run";
/// Set-up-only builds before each plain round; `setup_s` is their median.
const SETUPS_PER_ROUND: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Flood,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: ftmp-perfbench --workload <flood|invoke|lossy-crash-restart> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let started = Instant::now();
    let sched0 = sys::schedstat();
    let spec = Spec {
        workload: args.workload,
        seed: args.seed,
        scale: 1.0,
        workdir: PathBuf::from(WORKDIR),
    };
    // Traced runs cycle plain / traced / telemetry rounds so the overhead
    // ratios compare like with like under the same machine conditions.
    let cycle: &[Mode] = if args.trace {
        &[Mode::Plain, Mode::Traced, Mode::Telemetry]
    } else {
        &[Mode::Plain]
    };
    let min_rounds = if args.trace { cycle.len() } else { 3 };
    // The run measures for `--seconds` from its start; the checked round
    // follows, so the oracles' memory stays out of the peak RSS figure.
    let budget = Duration::from_secs(args.seconds);
    let mut rounds: Vec<Round> = Vec::new();
    // Per plain round: the machine's speed while it ran (the reference
    // rate), and the round's wall-time figures scaled to the reference.
    let mut reference = Vec::new();
    let mut scaled_ops = Vec::new();
    let mut setups = Vec::new();
    let mut scaled_setups = Vec::new();
    while rounds.len() < min_rounds || started.elapsed() < budget {
        let mode = cycle[rounds.len() % cycle.len()];
        let mut before = 0.0;
        if mode == Mode::Plain {
            before = calib::reference_rate();
            for _ in 0..SETUPS_PER_ROUND {
                let setup_s = run_round(&spec, Mode::Setup)?.setup_s;
                setups.push(setup_s);
                scaled_setups.push(setup_s * before / calib::REFERENCE_RATE);
            }
        }
        let mut r = run_round(&spec, mode)?;
        r.verdict
            .clone()
            .map_err(|e| format!("{mode:?} round {}: {e}", rounds.len() + 1))?;
        if let Some(first) = rounds.first().filter(|f| f.fingerprint != r.fingerprint) {
            return Err(format!(
                "{mode:?} round {} diverged from round 1 (fingerprint {:016x} vs {:016x})",
                rounds.len() + 1,
                r.fingerprint,
                first.fingerprint
            ));
        }
        if mode == Mode::Traced {
            // Only the latest traced round's spans and capture are kept.
            for old in rounds.iter_mut() {
                old.probe = None;
            }
        }
        if mode == Mode::Plain {
            // The geometric mean of the reference rate just before and just
            // after the round: rounds last up to seconds.
            let during = (before * calib::reference_rate()).sqrt();
            reference.push(during);
            scaled_ops.push(r.ops_per_s() * calib::REFERENCE_RATE / during);
        }
        // The latencies come from the checked round; kept here, they would
        // grow the peak RSS with the number of rounds.
        r.latencies_us = Vec::new();
        rounds.push(r);
    }
    let peak_rss_mb = sys::peak_rss_mb();
    let checked = run_round(&spec, Mode::Checked)?;
    checked
        .verdict
        .clone()
        .map_err(|e| format!("checked round: {e}"))?;
    if checked.fingerprint != rounds[0].fingerprint {
        return Err(format!(
            "the checked round diverged from round 1 (fingerprint {:016x} vs {:016x})",
            checked.fingerprint, rounds[0].fingerprint
        ));
    }
    let of = |mode: Mode| -> Vec<&Round> { rounds.iter().filter(|r| r.mode == mode).collect() };
    let plain = of(Mode::Plain);
    let plain_ops: Vec<f64> = plain.iter().map(|r| r.ops_per_s()).collect();
    let metrics: Vec<Metric> = if args.trace {
        let traced_all = of(Mode::Traced);
        let traced = *traced_all.last().expect("a traced round ran");
        let rep = replay(traced);
        let path = Path::new(WORKDIR).join(format!("spans-{}.bin", args.workload.name()));
        if let Some(p) = traced.probe.as_ref() {
            p.write_spans(&path)
                .map_err(|e| format!("write spans to {}: {e}", path.display()))?;
            println!("spans: {} written to {}", p.spans.len(), path.display());
        }
        per_layer(
            args.workload,
            &checked,
            traced,
            &rep,
            &plain,
            &of(Mode::Telemetry),
            &traced_all,
        )?
    } else {
        end_to_end(&checked, &scaled_ops, &scaled_setups, peak_rss_mb)?
    };

    let sched1 = sys::schedstat();
    let attempted: u64 = checked.attempted + rounds.iter().map(|r| r.attempted).sum::<u64>();
    let failed: u64 = checked.failed() + rounds.iter().map(Round::failed).sum::<u64>();
    println!(
        "record: {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"commit\": \"{}\", \
         \"source_fnv\": \"{:016x}\", \"nproc\": {}, \"cpu\": \"{}\", \"rounds\": {}, \
         \"ops_per_round\": {}, \"latency_samples\": {}, \"wall_s\": {:.3}, \
         \"on_cpu_s\": {:.3}, \"runqueue_wait_s\": {:.3}, \"timeslices\": {}, \
         \"reference_rate\": {:.0}, \"unscaled_ops_per_s\": {:.1}, \"unscaled_setup_s\": {:.6}}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        sys::commit(),
        sys::source_fingerprint(),
        sys::nproc(),
        sys::cpu_model().replace('"', "'"),
        rounds.len() + 1,
        checked.attempted,
        checked.latencies_us.len(),
        started.elapsed().as_secs_f64(),
        (sched1.0 - sched0.0) as f64 / 1e9,
        (sched1.1 - sched0.1) as f64 / 1e9,
        sched1.2 - sched0.2,
        stats::median(&reference),
        stats::median(&plain_ops),
        stats::median(&setups),
    );
    let per_round: Vec<String> = rounds
        .iter()
        .map(|r| format!("{:?}:{:.0}/{:.3}", r.mode, r.ops_per_s(), r.setup_s * 1e3))
        .collect();
    println!("rounds ops/s / setup ms: {}", per_round.join(" "));
    for x in &metrics {
        println!("{:<36} {:>16.4} {}", x.name, x.value, x.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = json_number(x.value)?;
            Ok(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                x.name, x.unit
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

fn json_number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("non-finite metric value {v}"))
    }
}
