//! Host-speed calibration for the timed run.
//!
//! On a shared host the simulator's speed drifts by 10-30% over minutes as
//! other tenants load the shared caches and memory: the same job, with the
//! same inputs, in the same process, took anywhere from 0.59 to 0.96 s
//! with no page faults or context switches. Raw host times of two runs of
//! the same code then differ by more than any useful regression bound.
//!
//! So the timed run measures a fixed reference kernel between the jobs and
//! scales their host times to a reference host speed: the speed at which
//! the kernel takes [`REF_S`] seconds. The kernel is a
//! set-associative LRU cache model over a 12.6 MB tag and age array, the
//! kind of branchy, cache-missing code the simulator itself runs, so it
//! slows when the simulator does; plain ALU or pointer-chasing loops did
//! not. It lives in the benchmark, not in the simulator, so a change to the
//! simulator moves the scaled times exactly as it moves the raw ones.

use std::hint::black_box;
use std::time::Instant;

/// Host seconds of one reference run at the reference host speed; a
/// scaled time is in seconds at that speed.
pub const REF_S: f64 = 0.1;

/// Sets of the modelled cache (16 ways each).
const SETS: usize = 1 << 16;
/// Ways per set.
const WAYS: usize = 16;
/// Accesses per reference run.
const ACCESSES: u32 = 1_000_000;

/// The reference kernel and its reused state.
#[derive(Debug)]
pub struct Reference {
    tags: Vec<u64>,
    ages: Vec<u32>,
    hits: Option<u64>,
}

impl Reference {
    /// Allocates and touches the kernel's arrays, so no run pays the page
    /// faults of first use.
    pub fn new() -> Self {
        let mut reference = Self {
            tags: vec![0; SETS * WAYS],
            ages: vec![0; SETS * WAYS],
            hits: None,
        };
        reference.time();
        reference
    }

    /// Runs the kernel once and returns its host seconds.
    ///
    /// Every run replays the same access stream from empty arrays, so it
    /// counts the same hits; a different count is a bug in the kernel.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        self.tags.fill(u64::MAX);
        self.ages.fill(0);
        // Half the accesses go to a hot 1/64 of the lines, half anywhere
        // in twice the cache's capacity: about half hit.
        let span = (SETS * WAYS) as u64 * 2;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut hits = 0u64;
        for now in 1..=ACCESSES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = if x & 1 == 0 {
                x % (span / 64)
            } else {
                x % span
            };
            let base = (line as usize & (SETS - 1)) * WAYS;
            let tags = &mut self.tags[base..base + WAYS];
            let ages = &mut self.ages[base..base + WAYS];
            let way = match tags.iter().position(|&t| t == line) {
                Some(way) => {
                    hits += 1;
                    way
                }
                None => {
                    let victim = (0..WAYS).min_by_key(|&w| ages[w]).unwrap_or(0);
                    tags[victim] = line;
                    victim
                }
            };
            ages[way] = now;
        }
        let hits = black_box(hits);
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(
            *self.hits.get_or_insert(hits),
            hits,
            "reference kernel hit count changed between runs"
        );
        elapsed
    }

    /// Bytes of the kernel's arrays. They are allocated and touched once,
    /// before any job runs, and stay resident (there is no swap to page
    /// them out of), so the process's peak resident memory less this is
    /// the peak of everything else.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(self.tags.as_slice()) + std::mem::size_of_val(self.ages.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_runs_repeat_their_hits() {
        let mut r = Reference::new();
        let t = r.time();
        assert!(t > 0.0);
        let hits = r.hits.expect("hit count recorded");
        assert!(hits > u64::from(ACCESSES) / 4 && hits < u64::from(ACCESSES));
    }
}
