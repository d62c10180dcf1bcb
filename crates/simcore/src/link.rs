//! Shared-bandwidth network link with progressive max-min fair sharing.
//!
//! The paper's testbed serves every client over one 1 GbE link; the
//! aggregate disk throughput a client *observes* is therefore capped by
//! how the link divides its capacity among concurrent responses. A
//! [`FairShareLink`] models that division: every active transfer gets a
//! max-min fair share of the capacity (the water-filling rule of the pure
//! allocator [`max_min_rates`]), re-divided every time a transfer starts
//! or finishes — the *progressive filling* interpretation of fairness.
//!
//! # Virtual-time fair queue
//!
//! Max-min fairness gives every transfer with the same demand the same
//! rate, so the link tracks *demand classes*, one per distinct demand, in
//! ascending demand order, rather than individual transfers. Each class
//! keeps its member count, its current per-member rate and a virtual
//! clock `V`: the bytes served to each member since the class formed
//! (kept with compensated summation and reset when the class empties). A
//! transfer of `b` bytes joining at virtual time `V` is done when the
//! clock reaches its virtual finish `V + b`; the class keeps those finish
//! tags in a min-heap. This is the virtual clock of GPS / weighted fair
//! queueing (Parekh & Gallager 1993; Demers, Keshav & Shenker 1989).
//!
//! On every start and every completion the link advances each class's
//! clock by `rate · dt`, water-fills the capacity over the classes
//! weighted by member count, and plans each class head's completion at
//! `now + ceil((V_finish − V) / rate)` whole nanoseconds. An event costs
//! O(k + log n) for k distinct demands and n transfers in flight; the
//! client tier, where every session has the same demand, has one class.
//!
//! The link is a [`SimComponent`](crate::SimComponent) on the shared
//! simulation clock, so a co-simulation driver can advance it in lockstep
//! with storage nodes. Determinism guarantees:
//!
//! * **tag order** — completions at one instant are delivered sorted by
//!   caller tag;
//! * **insertion-order invariance** — a class's rate depends only on the
//!   multiset of active demands, and simultaneous starts read the same
//!   virtual clock, so permuting the insertion order of simultaneous
//!   transfers cannot change any delivery;
//! * **chunk invariance** — floating-point state changes only at starts
//!   and completions, never in [`advance_to`](crate::SimComponent::advance_to)
//!   between them, so advancing in chunks is bit-identical to one shot.
//!
//! # Examples
//!
//! ```
//! use seqio_simcore::{FairShareLink, SimComponent, SimTime};
//!
//! // A 100 B/s link carrying two unbounded transfers of 100 B each:
//! // both run at 50 B/s and finish together at t = 2 s.
//! let mut link = FairShareLink::new(100.0).unwrap();
//! link.init();
//! link.start_transfer(SimTime::ZERO, 100, f64::INFINITY, 7);
//! link.start_transfer(SimTime::ZERO, 100, f64::INFINITY, 3);
//! link.advance_to(SimTime::MAX);
//! let done = link.take_deliveries();
//! assert_eq!(done.len(), 2);
//! assert_eq!(done[0].tag, 3); // equal instants delivered in tag order
//! assert_eq!(done[0].at, SimTime::from_nanos(2_000_000_000));
//! ```

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::component::SimComponent;
use crate::error::SeqioError;
use crate::time::SimTime;

/// Max-min fair allocation of `capacity_bps` among `demands` (bytes/s).
///
/// Water-filling: demands are satisfied in ascending order, each transfer
/// receiving `min(demand, remaining_capacity / transfers_left)`; equal
/// demands are granted together and receive bit-identical rates. The
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
pub fn max_min_rates(capacity_bps: f64, demands: &[f64]) -> Vec<f64> {
    assert!(!capacity_bps.is_nan() && capacity_bps > 0.0, "link capacity must be positive");
    assert!(demands.iter().all(|d| !d.is_nan() && *d > 0.0), "transfer demands must be positive");
    let mut order: Vec<usize> = (0..demands.len()).collect();
    order.sort_by(|&a, &b| demands[a].total_cmp(&demands[b]));
    let mut fill = WaterFill::new(capacity_bps, demands.len());
    let mut rates = vec![0.0; demands.len()];
    for class in order.chunk_by(|&a, &b| demands[a] == demands[b]) {
        let rate = fill.grant(demands[class[0]], class.len());
        for &i in class {
            rates[i] = rate;
        }
    }
    rates
}

/// The water-filling rule shared by [`max_min_rates`] and the link:
/// classes of equal demand are granted in ascending demand order.
struct WaterFill {
    capacity: f64,
    left: usize,
}

impl WaterFill {
    fn new(capacity_bps: f64, transfers: usize) -> Self {
        WaterFill { capacity: capacity_bps, left: transfers }
    }

    /// Grants the next `count` transfers, each demanding `demand_bps`,
    /// and returns the rate each of them gets.
    fn grant(&mut self, demand_bps: f64, count: usize) -> f64 {
        if self.capacity.is_infinite() {
            return demand_bps;
        }
        let rate = demand_bps.min(self.capacity / self.left as f64);
        self.capacity = (self.capacity - rate * count as f64).max(0.0);
        self.left -= count;
        rate
    }
}

/// One transfer that finished crossing the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDelivery {
    /// The caller-supplied transfer tag (e.g. a session id).
    pub tag: u64,
    /// When the last byte left the link.
    pub at: SimTime,
}

/// A transfer in flight: its virtual finish in its class's clock.
#[derive(Debug, Clone, Copy)]
struct Member {
    finish_v: f64,
    tag: u64,
}

impl Ord for Member {
    fn cmp(&self, other: &Self) -> Ordering {
        self.finish_v.total_cmp(&other.finish_v).then(self.tag.cmp(&other.tag))
    }
}

impl PartialOrd for Member {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Member {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Member {}

/// All active transfers sharing one demand, hence one max-min rate.
#[derive(Debug, Clone)]
struct DemandClass {
    demand_bps: f64,
    /// Rate granted to each member, bytes/s.
    rate_bps: f64,
    /// Bytes served per member since the class formed: `v + v_err`,
    /// accumulated with Neumaier's compensated summation.
    v: f64,
    v_err: f64,
    /// Members by ascending virtual finish (ties by tag).
    members: BinaryHeap<Reverse<Member>>,
    /// Planned completion of the head member under the current rate.
    next_finish: SimTime,
}

impl DemandClass {
    fn new(demand_bps: f64) -> Self {
        DemandClass {
            demand_bps,
            rate_bps: 0.0,
            v: 0.0,
            v_err: 0.0,
            members: BinaryHeap::new(),
            next_finish: SimTime::MAX,
        }
    }

    fn join(&mut self, bytes: u64, tag: u64) {
        // A zero-byte transfer is done on arrival, whatever the rounding
        // of the compensated clock.
        let finish_v =
            if bytes == 0 { f64::NEG_INFINITY } else { self.v + (self.v_err + bytes as f64) };
        self.members.push(Reverse(Member { finish_v, tag }));
    }

    /// Serves every member `rate · dt_secs` more bytes.
    fn advance(&mut self, dt_secs: f64) {
        let x = self.rate_bps * dt_secs;
        let sum = self.v + x;
        self.v_err += if self.v.abs() >= x.abs() { (self.v - sum) + x } else { (x - sum) + self.v };
        self.v = sum;
    }

    /// Completion instant, planned at the settled instant `now`, of a
    /// member whose virtual finish is `finish_v`. Ceiled to whole
    /// nanoseconds so the plan never undershoots.
    fn finish_at(&self, now: SimTime, finish_v: f64) -> SimTime {
        let remaining = (finish_v - self.v) - self.v_err;
        if remaining <= 0.0 || self.rate_bps.is_infinite() {
            return now;
        }
        let ns = (remaining / self.rate_bps * 1e9).ceil();
        SimTime::from_nanos(now.as_nanos().saturating_add(ns as u64))
    }
}

/// A shared-bandwidth link dividing its capacity max-min fairly among
/// concurrent transfers (see the module-level docs above).
#[derive(Debug, Clone)]
pub struct FairShareLink {
    capacity_bps: f64,
    /// The latest instant the link was advanced or settled to.
    now: SimTime,
    /// The instant the class clocks are settled to: the last start or
    /// completion.
    settled: SimTime,
    /// Classes with at least one member, by ascending demand.
    classes: Vec<DemandClass>,
    active: usize,
    deliveries: Vec<LinkDelivery>,
}

impl FairShareLink {
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
        Ok(FairShareLink {
            capacity_bps,
            now: SimTime::ZERO,
            settled: SimTime::ZERO,
            classes: Vec::new(),
            active: 0,
            deliveries: Vec::new(),
        })
    }

    /// An infinite-capacity link: every transfer completes the instant it
    /// starts, adding exactly zero delay (the identity configuration).
    pub fn infinite() -> Self {
        FairShareLink::new(f64::INFINITY).expect("infinity is a valid capacity")
    }

    /// The configured capacity, bytes per second.
    pub fn capacity_bps(&self) -> f64 {
        self.capacity_bps
    }

    /// The latest instant the link has been advanced or settled to;
    /// transfer starts must not precede it.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of transfers currently in flight.
    pub fn active_count(&self) -> usize {
        self.active
    }

    /// `true` when nothing is in flight.
    pub fn is_idle(&self) -> bool {
        self.active == 0
    }

    /// Begins moving `bytes` for `tag` at instant `at`, demanding at most
    /// `demand_bps` (the receiver's own bottleneck; `f64::INFINITY` for
    /// "as fast as the link allows"). The capacity is re-divided among
    /// the active transfers immediately. A zero-byte transfer completes
    /// at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the link's settled clock (starts must be
    /// fed in non-decreasing time order) or `demand_bps` is not positive.
    pub fn start_transfer(&mut self, at: SimTime, bytes: u64, demand_bps: f64, tag: u64) {
        assert!(at >= self.now, "transfer starts must not precede the link clock");
        assert!(!demand_bps.is_nan() && demand_bps > 0.0, "transfer demand must be positive");
        // Deliver anything that finishes no later than the new arrival,
        // then settle the survivors' clocks to `at`.
        self.run_completions(at);
        self.settle_to(at);
        let i = match self.classes.binary_search_by(|c| c.demand_bps.total_cmp(&demand_bps)) {
            Ok(i) => i,
            Err(i) => {
                self.classes.insert(i, DemandClass::new(demand_bps));
                i
            }
        };
        self.classes[i].join(bytes, tag);
        self.active += 1;
        self.reallocate();
    }

    /// Drains the accumulated [`LinkDelivery`] records, in delivery order
    /// (ties broken by ascending tag).
    pub fn take_deliveries(&mut self) -> Vec<LinkDelivery> {
        std::mem::take(&mut self.deliveries)
    }

    /// Serves every class at its current rate over `[self.settled, to]`.
    fn settle_to(&mut self, to: SimTime) {
        if to <= self.settled {
            return;
        }
        let dt = to.duration_since(self.settled).as_secs_f64();
        for c in &mut self.classes {
            c.advance(dt);
        }
        self.settled = to;
        self.now = self.now.max(to);
    }

    /// Water-fills the capacity over the classes and replans each class
    /// head's completion from the settled clock.
    fn reallocate(&mut self) {
        let mut fill = WaterFill::new(self.capacity_bps, self.active);
        for c in &mut self.classes {
            c.rate_bps = fill.grant(c.demand_bps, c.members.len());
            c.next_finish = match c.members.peek() {
                Some(Reverse(head)) => c.finish_at(self.settled, head.finish_v),
                None => SimTime::MAX,
            };
        }
    }

    /// Delivers every planned completion at instants `<= limit`, in time
    /// order (tag order within an instant), reallocating after each
    /// completion batch.
    fn run_completions(&mut self, limit: SimTime) {
        let first = self.deliveries.len();
        while let Some(next) = self.peek_next_time().filter(|&t| t <= limit) {
            // Every member planned to finish by `next` under the rates
            // granted at the settled instant leaves now.
            for c in &mut self.classes {
                while let Some(&Reverse(m)) = c.members.peek() {
                    if c.finish_at(self.settled, m.finish_v) > next {
                        break;
                    }
                    c.members.pop();
                    self.active -= 1;
                    self.deliveries.push(LinkDelivery { tag: m.tag, at: next });
                }
            }
            self.classes.retain(|c| !c.members.is_empty());
            self.settle_to(next);
            self.reallocate();
        }
        self.deliveries[first..].sort_unstable_by_key(|d| (d.at, d.tag));
    }
}

impl SimComponent for FairShareLink {
    fn init(&mut self) {}

    fn peek_next_time(&self) -> Option<SimTime> {
        self.classes.iter().map(|c| c.next_finish).min()
    }

    fn advance_to(&mut self, limit: SimTime) {
        self.run_completions(limit);
        self.now = self.now.max(limit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn drained(link: &mut FairShareLink) -> Vec<LinkDelivery> {
        link.advance_to(SimTime::MAX);
        link.take_deliveries()
    }

    #[test]
    fn single_transfer_runs_at_link_speed() {
        let mut l = FairShareLink::new(1000.0).unwrap();
        l.init();
        l.start_transfer(SimTime::ZERO, 500, f64::INFINITY, 1);
        let d = drained(&mut l);
        assert_eq!(d, vec![LinkDelivery { tag: 1, at: SimTime::from_nanos(500_000_000) }]);
        assert!(l.is_idle());
    }

    #[test]
    fn demand_cap_limits_a_transfer() {
        // 1000 B/s link, client can only take 100 B/s: 500 B takes 5 s.
        let mut l = FairShareLink::new(1000.0).unwrap();
        l.start_transfer(SimTime::ZERO, 500, 100.0, 9);
        let d = drained(&mut l);
        assert_eq!(d[0].at, SimTime::ZERO + SimDuration::from_secs(5));
    }

    #[test]
    fn rates_rise_progressively_as_transfers_finish() {
        // Two 100 B transfers share 100 B/s: both at 50 B/s. One 50 B
        // transfer joining at t=0 with demand 50 would change shares; use
        // a staggered pair instead: A=150 B and B=50 B from t=0. Both run
        // at 50 B/s; B finishes at 1 s; A then gets the full 100 B/s for
        // its remaining 100 B, finishing at 2 s (not 3 s).
        let mut l = FairShareLink::new(100.0).unwrap();
        l.start_transfer(SimTime::ZERO, 150, f64::INFINITY, 0);
        l.start_transfer(SimTime::ZERO, 50, f64::INFINITY, 1);
        let d = drained(&mut l);
        assert_eq!(d[0], LinkDelivery { tag: 1, at: SimTime::ZERO + SimDuration::from_secs(1) });
        assert_eq!(d[1], LinkDelivery { tag: 0, at: SimTime::ZERO + SimDuration::from_secs(2) });
    }

    #[test]
    fn late_arrival_slows_an_active_transfer() {
        // A: 200 B from t=0 alone at 100 B/s. B: 100 B arrives at t=1
        // when A has 100 B left; both then run at 50 B/s, finishing at 3 s.
        let mut l = FairShareLink::new(100.0).unwrap();
        l.start_transfer(SimTime::ZERO, 200, f64::INFINITY, 0);
        l.start_transfer(SimTime::ZERO + SimDuration::from_secs(1), 100, f64::INFINITY, 1);
        let d = drained(&mut l);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].at, SimTime::ZERO + SimDuration::from_secs(3));
        assert_eq!(d[1].at, SimTime::ZERO + SimDuration::from_secs(3));
        assert_eq!((d[0].tag, d[1].tag), (0, 1), "equal instants deliver in tag order");
    }

    #[test]
    fn infinite_capacity_adds_zero_delay() {
        let mut l = FairShareLink::infinite();
        let t = SimTime::from_nanos(123_456);
        l.start_transfer(t, u64::MAX / 2, f64::INFINITY, 4);
        l.advance_to(t);
        assert_eq!(l.take_deliveries(), vec![LinkDelivery { tag: 4, at: t }]);
    }

    #[test]
    fn zero_byte_transfer_completes_at_start() {
        let mut l = FairShareLink::new(10.0).unwrap();
        let t = SimTime::from_nanos(5);
        l.start_transfer(t, 0, 1.0, 2);
        l.advance_to(t);
        assert_eq!(l.take_deliveries(), vec![LinkDelivery { tag: 2, at: t }]);
    }

    #[test]
    fn chunked_advance_is_bit_identical_to_one_shot() {
        let runs: Vec<Vec<LinkDelivery>> = [1u64, 7, 1000]
            .iter()
            .map(|&step_ms| {
                let mut l = FairShareLink::new(777.0).unwrap();
                l.init();
                for i in 0..20u64 {
                    l.advance_to(SimTime::from_nanos(i * 50_000_000));
                    l.start_transfer(
                        SimTime::from_nanos(i * 50_000_000),
                        100 + i * 37,
                        if i % 3 == 0 { 250.0 } else { f64::INFINITY },
                        i,
                    );
                }
                let mut t = SimTime::from_nanos(20 * 50_000_000);
                while l.peek_next_time().is_some() {
                    t += SimDuration::from_millis(step_ms);
                    l.advance_to(t);
                }
                l.take_deliveries()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
        assert_eq!(runs[0].len(), 20);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(FairShareLink::new(0.0).is_err());
        assert!(FairShareLink::new(-5.0).is_err());
        assert!(FairShareLink::new(f64::NAN).is_err());
    }

    #[test]
    #[should_panic(expected = "must not precede")]
    fn starts_must_be_time_ordered() {
        let mut l = FairShareLink::new(10.0).unwrap();
        l.start_transfer(SimTime::from_nanos(100), 10, 1.0, 0);
        l.advance_to(SimTime::from_nanos(50_000_000_000));
        l.start_transfer(SimTime::from_nanos(10), 10, 1.0, 1);
    }

    #[test]
    fn allocator_waterfills() {
        let r = max_min_rates(90.0, &[10.0, 100.0, 100.0]);
        // Small demand fully served; the rest split the remainder evenly.
        assert!((r[0] - 10.0).abs() < 1e-9);
        assert!((r[1] - 40.0).abs() < 1e-9);
        assert!((r[2] - 40.0).abs() < 1e-9);
        assert!(max_min_rates(f64::INFINITY, &[5.0, f64::INFINITY])[1].is_infinite());
        assert!(max_min_rates(10.0, &[]).is_empty());
    }
}
