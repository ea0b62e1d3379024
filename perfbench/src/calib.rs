//! A fixed reference workload, independent of the program under test.
//!
//! Timed around every plain round, it tells how fast the machine ran at
//! that moment. A virtual machine's speed can drift by tens of percent
//! within minutes; the reference slows down and speeds up with the stack,
//! so wall-time figures scaled by it compare across such drift.

use crate::sys::Fnv;
use std::collections::BTreeMap;
use std::time::Instant;

/// Iterations of one reference pass (about 40 ms).
const ITERS: u64 = 200_000;
/// Key space of the reference map: it stays in the fast caches.
const KEYS: u64 = 1024;
/// The reference rate the scaled figures are expressed at, iterations per
/// second: about what a 2-vCPU Xeon VM gives.
pub const REFERENCE_RATE: f64 = 5.0e6;

/// Reference iterations per wall-second. Each iteration allocates a small
/// buffer, hashes its head, inserts it into an ordered map and removes
/// another key: the kind of work the stack does per message.
pub fn reference_rate() -> f64 {
    let started = Instant::now();
    let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut h = Fnv::new();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for i in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = vec![i as u8; 32 + (x >> 58) as usize];
        h.bytes(&v[..16]);
        if let Some(old) = map.insert(x % KEYS, v) {
            h.u64(old.len() as u64);
        }
        if i % 2 == 0 {
            map.remove(&((x >> 20) % KEYS));
        }
    }
    std::hint::black_box(h.0);
    ITERS as f64 / started.elapsed().as_secs_f64()
}
