//! A fixed reference computation, timed between a workload's own
//! operations, that reads how fast the machine is at that moment.
//!
//! On a shared host the same code runs up to 30% faster or slower from
//! one second to the next, and its average over a 30 s run moves by as
//! much from one run to the next, in CPU time as well as in wall time,
//! as other tenants load the cores, caches and memory. So the probe is
//! sampled all through the measured work, not only before or after it.
//!
//! The probe does the kind of work the pipeline does (small allocations,
//! hashing, word splitting and comparison, bit masks, sorting) plus
//! dependent loads over a table larger than the caches, and none of the
//! program's code, so a change to the program leaves it alone. A
//! workload's CPU time per operation divided by the probe's median CPU
//! time over the same run is the gated `op_cost`: the program's cost in
//! probe units, which follows the program more than the machine's load.

use std::collections::HashMap;
use std::hint::black_box;

use crate::stats::{median, thread_cpu_s, Rng};

const WORDS: usize = 2_400;
const MASK_WORDS: usize = 2_048;
const TUPLES: usize = 2_400;
const KEYWORDS: [&str; 4] = ["faculty", "deadline", "students", "doctor"];
/// Entries of the pointer-chasing table: 8 MiB.
const CHASE: usize = 1 << 21;
const CHASE_STEPS: usize = 4_000;

/// The reference computation's state, and its CPU times (seconds) over
/// a run.
pub struct Probe {
    text: String,
    masks: Vec<u64>,
    tuples: Vec<(u32, u64)>,
    /// A random cyclic permutation: following it misses the caches.
    chase: Vec<u32>,
    at: usize,
    samples: Vec<f64>,
}

impl Probe {
    pub fn new() -> Probe {
        let mut rng = Rng::new(0x9b0b_e000);
        let vocabulary = [
            "Faculty",
            "members",
            "of",
            "the",
            "department",
            "Deadline",
            "for",
            "papers",
            "is",
            "June",
            "Students",
            "advised",
            "by",
            "Doctor",
            "Smith",
            "and",
            "Chen",
            "2023",
        ];
        let mut text = String::new();
        for _ in 0..WORDS {
            text.push_str(vocabulary[rng.below(vocabulary.len())]);
            text.push(' ');
        }
        let masks = (0..MASK_WORDS).map(|_| rng.next_u64()).collect();
        let tuples = (0..TUPLES).map(|i| (i as u32, rng.next_u64())).collect();
        let order = rng.permutation(CHASE);
        let mut chase = vec![0u32; CHASE];
        for w in order.windows(2) {
            chase[w[0]] = w[1] as u32;
        }
        chase[order[CHASE - 1]] = order[0] as u32;
        Probe {
            text,
            masks,
            tuples,
            chase,
            at: 0,
            samples: Vec::new(),
        }
    }

    /// Runs the reference computation `times` times on the calling
    /// thread, recording the thread CPU time of each.
    pub fn sample(&mut self, times: usize) {
        for _ in 0..times {
            let t0 = thread_cpu_s();
            let out = self.work();
            self.samples.push(thread_cpu_s() - t0);
            black_box(out);
        }
    }

    /// The CPU time of every sample so far, in seconds.
    pub fn total_s(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// The median probe CPU time in seconds (0 before any sample).
    pub fn median_s(&self) -> f64 {
        median(&self.samples)
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// About 1 ms of mixed work on a 2-core x86-64 container: short
    /// enough to fit between two sends at 200 req/s.
    fn work(&mut self) -> u64 {
        // Words: split, lowercase, compare with keywords, count per word.
        let mut counts: HashMap<String, u32> = HashMap::new();
        let mut hits = 0u64;
        for word in self.text.split_whitespace() {
            let lower = word.to_lowercase();
            hits += KEYWORDS.iter().filter(|k| lower.starts_with(*k)).count() as u64;
            *counts.entry(lower).or_default() += 1;
        }
        // Small vectors grouped by key, like per-node feature lists.
        let mut groups: HashMap<u64, Vec<u32>> = HashMap::new();
        for &(i, key) in &self.tuples {
            groups.entry(key % 509).or_default().push(i);
        }
        // Bit masks: population counts of pairwise differences.
        let mut bits = 0u64;
        for pair in self.masks.windows(2) {
            bits += u64::from((pair[0] & !pair[1]).count_ones());
        }
        // Sorting, then restoring the order for the next call.
        self.tuples.sort_unstable_by_key(|t| t.1);
        let middle = self.tuples[TUPLES / 2].1;
        self.tuples.sort_unstable_by_key(|t| t.0);
        // Dependent loads, each likely a cache miss.
        for _ in 0..CHASE_STEPS {
            self.at = self.chase[self.at] as usize;
        }
        hits + counts.len() as u64 + groups.len() as u64 + bits + (middle & 0xff) + self.at as u64
    }
}
