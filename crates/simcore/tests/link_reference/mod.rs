//! The fair-share link as it was before the virtual-time fair queue:
//! every start and completion re-runs the per-transfer water-fill over all
//! active demands, settles every transfer's remaining bytes and min-scans
//! the planned finishes (O(n log n) per event). Kept verbatim as the
//! reference the differential tests in `link_properties.rs` compare the
//! library's [`FairShareLink`](seqio_simcore::FairShareLink) against.

#![allow(dead_code)]

use seqio_simcore::{LinkDelivery, SeqioError, SimComponent, SimTime};

/// Max-min fair allocation of `capacity_bps` among `demands` (bytes/s).
///
/// Water-filling: demands are satisfied in ascending order, each transfer
/// receiving `min(demand, remaining_capacity / transfers_left)`. The
/// result is returned in input order but depends only on each entry's own
/// value and the multiset of demands, so it is invariant under input
/// permutation. Properties (verified by `tests/link_properties.rs`):
///
/// * conservation — granted rates sum to `min(capacity, sum of demands)`;
/// * fairness — nobody is below `min(demand, capacity / n)`;
/// * monotonicity — adding a demand never raises anyone else's rate.
///
/// An infinite capacity grants every demand in full; infinite demands are
/// allowed and mean "take whatever the link offers".
///
/// # Panics
///
/// Panics if `capacity_bps` is NaN, zero or negative, or any demand is
/// NaN, zero or negative.
pub fn reference_max_min_rates(capacity_bps: f64, demands: &[f64]) -> Vec<f64> {
    assert!(!capacity_bps.is_nan() && capacity_bps > 0.0, "link capacity must be positive");
    assert!(demands.iter().all(|d| !d.is_nan() && *d > 0.0), "transfer demands must be positive");
    if capacity_bps.is_infinite() {
        return demands.to_vec();
    }
    let mut order: Vec<usize> = (0..demands.len()).collect();
    order.sort_by(|&a, &b| demands[a].total_cmp(&demands[b]).then(a.cmp(&b)));
    let mut rates = vec![0.0; demands.len()];
    let mut capacity = capacity_bps;
    let mut left = demands.len();
    for &i in &order {
        let fair = capacity / left as f64;
        let granted = demands[i].min(fair);
        rates[i] = granted;
        capacity = (capacity - granted).max(0.0);
        left -= 1;
    }
    rates
}

#[derive(Debug, Clone)]
struct Transfer {
    tag: u64,
    /// Bytes still to move, settled up to `ReferenceLink::now`.
    remaining: f64,
    /// The most the receiver can absorb, bytes/s.
    demand_bps: f64,
    /// Currently granted rate, bytes/s.
    rate_bps: f64,
    /// Planned completion instant under the current rate.
    finish: SimTime,
}

/// A shared-bandwidth link dividing its capacity max-min fairly among
/// concurrent transfers (see the module-level docs above).
#[derive(Debug, Clone)]
pub struct ReferenceLink {
    capacity_bps: f64,
    now: SimTime,
    active: Vec<Transfer>,
    deliveries: Vec<LinkDelivery>,
}

impl ReferenceLink {
    /// Creates a link with the given capacity in bytes per second.
    /// `f64::INFINITY` models an uncontended (zero-delay) network.
    ///
    /// # Errors
    ///
    /// Rejects NaN, zero or negative capacities.
    pub fn new(capacity_bps: f64) -> Result<Self, SeqioError> {
        if capacity_bps.is_nan() || capacity_bps <= 0.0 {
            return Err(SeqioError::Experiment(format!(
                "link capacity must be positive, got {capacity_bps}"
            )));
        }
        Ok(ReferenceLink {
            capacity_bps,
            now: SimTime::ZERO,
            active: Vec::new(),
            deliveries: Vec::new(),
        })
    }

    /// An infinite-capacity link: every transfer completes the instant it
    /// starts, adding exactly zero delay (the identity configuration).
    pub fn infinite() -> Self {
        ReferenceLink::new(f64::INFINITY).expect("infinity is a valid capacity")
    }

    /// The configured capacity, bytes per second.
    pub fn capacity_bps(&self) -> f64 {
        self.capacity_bps
    }

    /// The instant the link's bookkeeping is settled to.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of transfers currently in flight.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// `true` when nothing is in flight.
    pub fn is_idle(&self) -> bool {
        self.active.is_empty()
    }

    /// Begins moving `bytes` for `tag` at instant `at`, demanding at most
    /// `demand_bps` (the receiver's own bottleneck; `f64::INFINITY` for
    /// "as fast as the link allows"). Rates of every active transfer are
    /// recomputed immediately. A zero-byte transfer completes at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the link's settled clock (starts must be
    /// fed in non-decreasing time order) or `demand_bps` is not positive.
    pub fn start_transfer(&mut self, at: SimTime, bytes: u64, demand_bps: f64, tag: u64) {
        assert!(at >= self.now, "transfer starts must not precede the link clock");
        assert!(!demand_bps.is_nan() && demand_bps > 0.0, "transfer demand must be positive");
        // Deliver anything that finishes strictly before the new arrival,
        // then settle the survivors' byte counts to `at`.
        self.run_completions(at);
        self.settle_to(at);
        self.active.push(Transfer {
            tag,
            remaining: bytes as f64,
            demand_bps,
            rate_bps: 0.0,
            finish: SimTime::MAX,
        });
        self.recompute_rates();
    }

    /// Drains the accumulated [`LinkDelivery`] records, in delivery order
    /// (ties broken by ascending tag).
    pub fn take_deliveries(&mut self) -> Vec<LinkDelivery> {
        std::mem::take(&mut self.deliveries)
    }

    /// Moves bytes for the interval `[self.now, to]` at current rates.
    fn settle_to(&mut self, to: SimTime) {
        if to <= self.now {
            return;
        }
        let dt = to.duration_since(self.now).as_secs_f64();
        for t in &mut self.active {
            if t.rate_bps.is_infinite() {
                t.remaining = 0.0;
            } else {
                t.remaining = (t.remaining - t.rate_bps * dt).max(0.0);
            }
        }
        self.now = to;
    }

    /// Reassigns every active transfer its max-min fair rate and replans
    /// its completion instant from the settled clock.
    fn recompute_rates(&mut self) {
        if self.active.is_empty() {
            return;
        }
        let demands: Vec<f64> = self.active.iter().map(|t| t.demand_bps).collect();
        let rates = reference_max_min_rates(self.capacity_bps, &demands);
        for (t, rate) in self.active.iter_mut().zip(rates) {
            t.rate_bps = rate;
            t.finish = if t.remaining <= 0.0 || rate.is_infinite() {
                self.now
            } else {
                // Ceil to whole nanoseconds so the plan never undershoots;
                // completion forces the residue to zero.
                let ns = (t.remaining / rate * 1e9).ceil();
                SimTime::from_nanos(self.now.as_nanos().saturating_add(ns as u64))
            };
        }
    }

    /// Delivers every planned completion at instants `<= limit`, in time
    /// order, recomputing rates after each completion batch.
    fn run_completions(&mut self, limit: SimTime) {
        loop {
            let Some(next) = self.active.iter().map(|t| t.finish).min() else {
                return;
            };
            if next > limit {
                return;
            }
            self.settle_to(next);
            let mut done: Vec<u64> =
                self.active.iter().filter(|t| t.finish == next).map(|t| t.tag).collect();
            done.sort_unstable();
            self.active.retain(|t| t.finish != next);
            for tag in done {
                self.deliveries.push(LinkDelivery { tag, at: next });
            }
            self.recompute_rates();
        }
    }
}

impl SimComponent for ReferenceLink {
    fn init(&mut self) {}

    fn peek_next_time(&self) -> Option<SimTime> {
        self.active.iter().map(|t| t.finish).min()
    }

    fn advance_to(&mut self, limit: SimTime) {
        self.run_completions(limit);
        self.settle_to(limit.max(self.now));
    }
}
