//! The seven `ftmp-check` oracles, attached to a checked round.
//!
//! The open loops use the standard [`OracleSuite`] unchanged. In the
//! invocation workload both client replicas multicast each request under
//! the same request number — active replication — so the processors
//! deliver each request twice by design and the ORB's duplicate detectors
//! suppress the second copy. There the duplicate-suppression oracle judges
//! the ORB boundary instead: the completions each client replica hands up.

use ftmp_check::oracles::{standard, DuplicateSuppression};
use ftmp_check::suite::OracleSuite;
use ftmp_check::{Event, Oracle, Violation};
use ftmp_core::{GroupId, Observation, ProcessorId, Timestamp};
use ftmp_net::SimTime;

/// Violations shown in a failed verdict.
const SHOWN: usize = 16;

/// The oracle set of one checked round.
pub enum Oracles {
    /// All seven oracles over the processors' observations.
    Engine(OracleSuite),
    /// Six oracles over the processors, duplicate suppression over the
    /// ORB completions.
    OrbBoundary(OrbBoundary),
}

/// The invocation workload's oracle set.
pub struct OrbBoundary {
    engine: Vec<Box<dyn Oracle>>,
    orb: DuplicateSuppression,
    violations: Vec<Violation>,
    delivered: u64,
}

impl Oracles {
    /// All seven oracles over `group` founded by `founders`; with
    /// `orb_boundary`, duplicate suppression judges ORB completions.
    pub fn new(group: GroupId, founders: &[ProcessorId], orb_boundary: bool) -> Self {
        if !orb_boundary {
            return Oracles::Engine(OracleSuite::standard(group, founders));
        }
        let mut o = OrbBoundary {
            engine: standard()
                .into_iter()
                .filter(|o| o.name() != "duplicate-suppression")
                .collect(),
            orb: DuplicateSuppression::new(),
            violations: Vec::new(),
            delivered: 0,
        };
        for &p in founders {
            o.ingest(Event {
                at: SimTime::ZERO,
                node: p,
                obs: Observation::ViewInstalled {
                    group,
                    members: founders.to_vec(),
                    ts: Timestamp(0),
                },
            });
        }
        Oracles::OrbBoundary(o)
    }

    /// One processor observation.
    pub fn ingest(&mut self, ev: Event) {
        match self {
            Oracles::Engine(s) => s.ingest(ev),
            Oracles::OrbBoundary(o) => o.ingest(ev),
        }
    }

    /// One ORB completion at a client replica, presented to duplicate
    /// suppression as a delivery of that request.
    pub fn completion(&mut self, ev: Event) {
        if let Oracles::OrbBoundary(o) = self {
            o.orb.observe(&ev, &mut o.violations);
        }
    }

    /// A member crashed: release it from convergence duties.
    pub fn retire(&mut self, node: u32) {
        if let Oracles::Engine(s) = self {
            s.retire(ProcessorId(node));
        }
    }

    /// A crashed member restarted under the same id.
    pub fn rejoin(&mut self, node: u32) {
        if let Oracles::Engine(s) = self {
            s.rejoin(ProcessorId(node));
        }
    }

    /// End of round: `live` must have converged. Returns the first
    /// violations when any oracle tripped.
    pub fn finish(&mut self, live: &[u32]) -> Result<(), String> {
        let live: Vec<ProcessorId> = live.iter().map(|&i| ProcessorId(i)).collect();
        let (count, shown, delivered) = match self {
            Oracles::Engine(s) => {
                s.finish(&live);
                (s.violation_count(), s.violations(), s.delivered())
            }
            Oracles::OrbBoundary(o) => {
                for x in &mut o.engine {
                    x.finish(&live, &mut o.violations);
                }
                o.orb.finish(&live, &mut o.violations);
                (o.violations.len() as u64, &o.violations[..], o.delivered)
            }
        };
        if count > 0 {
            let shown: Vec<String> = shown.iter().take(SHOWN).map(|v| v.to_string()).collect();
            return Err(format!(
                "{count} oracle violation(s):\n{}",
                shown.join("\n")
            ));
        }
        if delivered == 0 {
            return Err("the oracles observed no delivery".into());
        }
        Ok(())
    }
}

impl OrbBoundary {
    fn ingest(&mut self, ev: Event) {
        if matches!(ev.obs, Observation::Delivered { .. }) {
            self.delivered += 1;
        }
        for o in &mut self.engine {
            o.observe(&ev, &mut self.violations);
        }
    }
}
