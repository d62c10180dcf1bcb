//! A fixed reference computation timed beside every repetition, so that
//! `wall_s` can be read at one host speed.
//!
//! On a shared host other tenants contend for the memory system, and a
//! repetition of the same simulation takes anywhere from 1x to 2.5x its
//! quiet time, in stretches from a fraction of a second to minutes. No
//! statistic over the repetitions of one run removes a stretch that
//! covers the whole run. The probe is a small discrete-event loop with a
//! working set like the simulator's (a binary-heap event queue over 16 Ki
//! streams, one 64-byte state record per stream and a 4 MiB table touched
//! at random), so contention slows it much as it slows the simulator; its
//! code is the benchmark's own and no change to the repository's crates
//! changes it. Timed just before and just after a repetition, it gives
//! that repetition's slowdown.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Events one probe measurement processes.
const EVENTS: usize = 400_000;
const STREAMS: usize = 16_384;
const TABLE_WORDS: usize = 1 << 19;

/// Host time of one probe measurement on a 2-vCPU Intel Xeon virtual
/// machine in its quietest observed moments. It only sets the scale of
/// `wall_s`: a repetition's time divided by its probe time, times this,
/// reads as the repetition's host time on that machine when quiet.
pub const NOMINAL_S: f64 = 0.042;

pub struct Probe {
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    streams: Vec<[u64; 8]>,
    table: Vec<u64>,
    rng: u64,
}

impl Probe {
    /// Builds the probe's state and runs it once untimed, so that its
    /// memory is resident before the first measurement.
    pub fn new() -> Probe {
        let queue =
            (0..STREAMS as u32).map(|i| Reverse((u64::from(i) * 7919 % 100_000, i))).collect();
        let mut p = Probe {
            queue,
            streams: vec![[0; 8]; STREAMS],
            table: vec![0; TABLE_WORDS],
            rng: 0x2545_f491_4f6c_dd1d,
        };
        black_box(p.step(EVENTS));
        p
    }

    /// Host seconds of one measurement.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.step(EVENTS));
        t.elapsed().as_secs_f64()
    }

    fn step(&mut self, events: usize) -> u64 {
        let mask = TABLE_WORDS - 1;
        let mut acc = 0;
        for _ in 0..events {
            let Some(Reverse((at, id))) = self.queue.pop() else { break };
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let x = self.rng;
            let s = &mut self.streams[id as usize];
            s[0] += 1;
            s[1] = s[1].wrapping_add(at);
            s[(x & 7) as usize] ^= x;
            let slot = (x >> 20) as usize & mask;
            self.table[slot] = self.table[slot].wrapping_add(at);
            acc ^= self.table[slot.wrapping_mul(31) & mask];
            self.queue.push(Reverse((at + 1 + x % 50_000, id)));
        }
        acc
    }
}
