//! The host-speed reference: a fixed kernel, timed between repetitions.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by up to 2x over minutes. No steal time shows in the guest, so CPU
//! time drifts with wall time. The kernel below does a fixed amount of
//! the kinds of work the workloads do — dense floating-point algebra,
//! scattered memory reads, sorting — on every worker at once. Its time,
//! read before the first repetition and after every one, says how fast
//! the host ran during the run. A measured time `t` is reported as
//! `t · NOMINAL_S / k`, with `k` the median reading: the time the same
//! work takes on a host where the kernel takes [`NOMINAL_S`]. The kernel
//! is the benchmark's own code, so a change to the repository's code
//! moves `t` and leaves `k` alone.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the nominal host, seconds.
pub const NOMINAL_S: f64 = 0.025;
/// Timings per reading; a reading keeps the fastest, as brief
/// interruptions only ever slow a timing.
const TRIES: usize = 3;
/// Matrix order of the dense product.
const N: usize = 48;
/// Scattered-read table: 2^20 words, 8 MiB.
const TABLE: usize = 1 << 20;
const READS: usize = 1 << 17;
const SORTED: usize = 1 << 14;
/// Passes of the kernel per timing.
const PASSES: u64 = 24;

/// One reading of the host's speed: the kernel's time on `threads`
/// threads at once, the fastest of [`TRIES`].
pub fn read(threads: usize) -> f64 {
    let table: Vec<u64> = (0..TABLE as u64).map(mix).collect();
    (0..TRIES)
        .map(|_| {
            let start = Instant::now();
            std::thread::scope(|s| {
                for t in 0..threads {
                    let table = &table;
                    s.spawn(move || {
                        (0..PASSES).fold(0, |acc, p| {
                            acc ^ black_box(kernel(t as u64 * PASSES + p, table))
                        })
                    });
                }
            });
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn kernel(salt: u64, table: &[u64]) -> u64 {
    // Dense algebra: C = A·B, the shape of the surrogate's Gram products.
    let a: Vec<f64> = (0..N * N)
        .map(|i| (mix(i as u64 ^ salt) % 1000) as f64 * 1e-3)
        .collect();
    let b: Vec<f64> = a.iter().rev().copied().collect();
    let mut c = vec![0.0f64; N * N];
    for i in 0..N {
        for k in 0..N {
            let aik = a[i * N + k];
            for j in 0..N {
                c[i * N + j] += aik * b[k * N + j];
            }
        }
    }
    // Scattered reads: a dependent walk through a table larger than the
    // caches, as a sampler over a million clients makes.
    let mut at = salt as usize % TABLE;
    let mut acc = 0u64;
    for _ in 0..READS {
        let v = table[at];
        acc = acc.wrapping_add(v);
        at = (v as usize ^ at) % TABLE;
    }
    // Sorting, as Pareto filtering and cohort selection do.
    let mut keys: Vec<u64> = (0..SORTED as u64).map(|i| mix(i ^ acc)).collect();
    keys.sort_unstable();
    acc ^ keys[SORTED / 2] ^ c[N * N / 2].to_bits()
}

/// SplitMix64's finaliser.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
