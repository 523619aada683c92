//! Host-speed calibration.
//!
//! The host this benchmark runs on is shared: over tens of seconds its
//! speed swings by up to half again (the same burst pass took 0.20 s in
//! one minute and 0.30 s in the next), far more than the bounds a
//! regression check needs. A fixed kernel that uses none of the library
//! — sorting, a B-tree and a hash map over a few MB — is timed just
//! before every pass, and the headline times are rescaled to the host
//! speed at which the kernel takes [`REFERENCE_S`]. A change to the
//! library moves the pass times but not the kernel, so it shows in full.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Kernel time on the reference host (a 2-core cloud VM with the
/// kernel's median at 25 ms).
pub(crate) const REFERENCE_S: f64 = 0.025;

/// The kernel's checksum, fixed by its inputs.
fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut v: Vec<u64> = (0..200_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    let tree: BTreeMap<u64, usize> = v
        .iter()
        .enumerate()
        .step_by(4)
        .map(|(i, k)| (k.rotate_left(17), i))
        .collect();
    let mut sum = v
        .iter()
        .step_by(3)
        .filter_map(|k| tree.get(&k.rotate_left(17)))
        .fold(0u64, |a, &i| a.wrapping_add(i as u64));
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for k in v.iter().step_by(2) {
        *counts.entry(k % 50_000).or_insert(0) += 1;
    }
    sum = sum.wrapping_add(counts.len() as u64);
    black_box(sum)
}

/// Wall seconds for `threads` copies of the kernel run side by side —
/// one per worker a pass keeps busy, so every core it uses is sampled.
pub(crate) fn sample(threads: usize) -> f64 {
    let t0 = Instant::now();
    if threads <= 1 {
        kernel();
    } else {
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(kernel);
            }
        });
    }
    t0.elapsed().as_secs_f64()
}
