//! The machine's pace: a fixed pointer chase owned by the benchmark,
//! timed between operations while no program process is working.
//!
//! On a shared virtual machine the whole machine changes speed for
//! minutes at a time: within ten minutes, with the same code, the
//! serve workload's throughput read 1.07M–1.76M probes/s and the
//! thousandfold one's 0.40M–0.77M, with no hypervisor steal. The drift
//! sits in the memory hierarchy (an ALU loop slowed ~10% while a chase
//! slowed ~50%), and no statistic taken within one run removes it. A
//! dependent-load chase over a 1 MiB ring slows down with it, so the
//! gated timings are scaled to what they would read at the chase's
//! nominal pace. The chase is the benchmark's own code: a change to
//! the program moves the scaled timings and not the pace.

use std::hint::black_box;
use std::time::Instant;

/// Ring slots: 1 MiB of `u32`.
const SLOTS: usize = 256 << 10;
/// Dependent loads per sample (~10–16 ms on a 2.0 GHz Xeon vCPU).
const STEPS: usize = 1_000_000;
/// The chase time the scaled timings are expressed at: the fastest
/// pace seen on that machine, in ms per sample.
pub const NOMINAL_MS: f64 = 10.0;

/// The ring and the times of the chases made so far.
pub struct Pace {
    next: Vec<u32>,
    ms: Vec<f64>,
}

impl Pace {
    /// One random cycle through every slot, from a fixed seed.
    pub fn new() -> Pace {
        let mut order: Vec<u32> = (0..SLOTS as u32).collect();
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..SLOTS).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; SLOTS];
        for k in 0..SLOTS {
            next[order[k] as usize] = order[(k + 1) % SLOTS];
        }
        Pace {
            next,
            ms: Vec::new(),
        }
    }

    /// Times one chase around the ring.
    pub fn sample(&mut self) {
        let _g = crate::spans::span("pace.chase");
        let t0 = Instant::now();
        let mut p = 0u32;
        for _ in 0..STEPS {
            p = self.next[p as usize];
        }
        black_box(p);
        self.ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    /// The median chase time of the run, in ms.
    pub fn ms(&self) -> f64 {
        crate::util::median(&self.ms)
    }

    /// How much slower than nominal the machine ran: times divide by
    /// it and rates multiply by it to read at the nominal pace.
    pub fn slowdown(&self) -> f64 {
        self.ms() / NOMINAL_MS
    }
}
