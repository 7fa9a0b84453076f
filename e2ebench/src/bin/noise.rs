//! Host-noise reference: how steady this machine is for work that stays in
//! L1 versus work that streams through memory.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml --bin noise
//! ```
//!
//! Prints, for each probe, the min, median and max of 12 timed passes.

use std::hint::black_box;
use std::time::Instant;

const PASSES: usize = 12;

fn summary(name: &str, mut secs: Vec<f64>) {
    secs.sort_by(f64::total_cmp);
    let med = secs[secs.len() / 2];
    println!(
        "{name:28} min {:.4} s  median {med:.4} s  max {:.4} s  (max/min {:.2})",
        secs[0],
        secs[secs.len() - 1],
        secs[secs.len() - 1] / secs[0]
    );
}

fn main() {
    // In-L1: a 4 KiB buffer updated in place many times.
    let mut small = vec![1.0f64; 512];
    let l1: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..1_000_000 {
                for v in small.iter_mut() {
                    *v = *v * 0.999_999 + 1e-9;
                }
                black_box(&mut small);
            }
            start.elapsed().as_secs_f64()
        })
        .collect();
    summary("in-L1 loop (4 KiB)", l1);

    // Streaming: read and write a 32 MiB buffer end to end.
    let mut big = vec![1.0f64; 4 << 20];
    let stream: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..40 {
                for v in big.iter_mut() {
                    *v = *v * 0.999_999 + 1e-9;
                }
                black_box(&mut big);
            }
            start.elapsed().as_secs_f64()
        })
        .collect();
    summary("streaming pass (32 MiB)", stream);
    println!(
        "host cpus: {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
}
