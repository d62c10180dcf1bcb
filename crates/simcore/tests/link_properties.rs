//! Property tests for the fair-share link: conservation, max-min
//! fairness, monotonicity of the pure allocator, insertion-order
//! determinism of the full progressive-filling link simulation, and a
//! differential comparison of the virtual-time fair queue against the
//! per-event water-fill link it replaced ([`ReferenceLink`]).

mod link_reference;

use link_reference::{reference_max_min_rates, ReferenceLink};
use proptest::prelude::*;
use seqio_simcore::{
    max_min_rates, FairShareLink, LinkDelivery, SimComponent, SimDuration, SimTime,
};

/// Builds a positive, finite demand vector from raw generator output.
fn demands_from(raw: &[u16]) -> Vec<f64> {
    raw.iter().map(|&d| f64::from(d) + 1.0).collect()
}

/// Runs `n` transfers through a link, inserting the starts of each
/// simultaneous batch in the order given by `perm`, and returns the
/// deliveries.
fn run_link(capacity: f64, transfers: &[(u64, u64, f64)], order: &[usize]) -> Vec<LinkDelivery> {
    let mut link = FairShareLink::new(capacity).expect("positive capacity");
    link.init();
    // Starts must be fed in time order; the stable sort keeps `order`'s
    // relative arrangement within each simultaneous batch (the property
    // under test).
    let mut idx: Vec<usize> = order.to_vec();
    idx.sort_by_key(|&i| transfers[i].0);
    for &i in &idx {
        let (start_ns, bytes, demand) = transfers[i];
        link.start_transfer(SimTime::from_nanos(start_ns), bytes, demand, i as u64);
    }
    link.advance_to(SimTime::MAX);
    link.take_deliveries()
}

proptest! {
    /// Conservation: granted rates sum to `min(capacity, sum demands)`
    /// (up to fp rounding) — the link never oversubscribes and never
    /// leaves claimable bandwidth idle.
    #[test]
    fn prop_allocation_conserves_capacity(
        capacity_raw in 1u32..1_000_000,
        raw in proptest::collection::vec(any::<u16>(), 1..40),
    ) {
        let capacity = f64::from(capacity_raw);
        let demands = demands_from(&raw);
        let rates = max_min_rates(capacity, &demands);
        let granted: f64 = rates.iter().sum();
        let claimable: f64 = demands.iter().sum::<f64>().min(capacity);
        prop_assert!(
            (granted - claimable).abs() <= 1e-9 * claimable.max(1.0),
            "granted {granted} != claimable {claimable}"
        );
    }

    /// Max-min fairness: nobody sits below `min(demand, capacity / n)` —
    /// a transfer is only ever short of the equal share because its own
    /// demand is smaller.
    #[test]
    fn prop_no_one_below_the_fair_share(
        capacity_raw in 1u32..1_000_000,
        raw in proptest::collection::vec(any::<u16>(), 1..40),
    ) {
        let capacity = f64::from(capacity_raw);
        let demands = demands_from(&raw);
        let rates = max_min_rates(capacity, &demands);
        let equal = capacity / demands.len() as f64;
        for (i, (&rate, &demand)) in rates.iter().zip(&demands).enumerate() {
            let floor = demand.min(equal);
            prop_assert!(
                rate >= floor - 1e-9 * floor.max(1.0),
                "transfer {i}: rate {rate} below fair floor {floor}"
            );
            prop_assert!(rate <= demand + 1e-12, "transfer {i} granted above its demand");
        }
    }

    /// Monotonicity: adding one more transfer never *raises* any
    /// existing transfer's rate.
    #[test]
    fn prop_adding_a_transfer_never_raises_others(
        capacity_raw in 1u32..1_000_000,
        raw in proptest::collection::vec(any::<u16>(), 1..40),
        extra in any::<u16>(),
    ) {
        let capacity = f64::from(capacity_raw);
        let demands = demands_from(&raw);
        let before = max_min_rates(capacity, &demands);
        let mut grown = demands.clone();
        grown.push(f64::from(extra) + 1.0);
        let after = max_min_rates(capacity, &grown);
        for (i, (&b, &a)) in before.iter().zip(&after).enumerate() {
            prop_assert!(
                a <= b + 1e-9 * b.max(1.0),
                "transfer {i} rose from {b} to {a} when a competitor joined"
            );
        }
    }

    /// Allocation is invariant under permutation of the demand vector:
    /// each transfer's rate depends only on its own demand and the
    /// multiset of competitors.
    #[test]
    fn prop_allocation_is_permutation_invariant(
        capacity_raw in 1u32..1_000_000,
        raw in proptest::collection::vec(any::<u16>(), 2..30),
        rot in 1usize..29,
    ) {
        let capacity = f64::from(capacity_raw);
        let demands = demands_from(&raw);
        let rot = rot % demands.len();
        let mut rotated = demands.clone();
        rotated.rotate_left(rot);
        let base = max_min_rates(capacity, &demands);
        let perm = max_min_rates(capacity, &rotated);
        for (i, p) in perm.iter().enumerate() {
            let j = (i + rot) % demands.len();
            prop_assert_eq!(
                base[j].to_bits(),
                p.to_bits(),
                "rate changed under permutation at index {}",
                j
            );
        }
    }

    /// Completion-order determinism: permuting the insertion order of
    /// simultaneous transfers changes no delivery instant and no
    /// delivery order (ties always resolve by ascending tag).
    #[test]
    fn prop_deliveries_are_insertion_order_invariant(
        capacity_raw in 1u32..100_000,
        raw in proptest::collection::vec((0u64..5, 1u64..100_000, any::<bool>()), 1..20),
        rot in 1usize..19,
    ) {
        let capacity = f64::from(capacity_raw);
        // A handful of start instants so simultaneous batches are common.
        let transfers: Vec<(u64, u64, f64)> = raw
            .iter()
            .map(|&(slot, bytes, capped)| {
                let demand = if capped { capacity / 3.0 } else { f64::INFINITY };
                (slot * 1_000_000, bytes, demand)
            })
            .collect();
        let forward: Vec<usize> = (0..transfers.len()).collect();
        let mut permuted = forward.clone();
        permuted.rotate_left(rot % transfers.len());
        let a = run_link(capacity, &transfers, &forward);
        let b = run_link(capacity, &transfers, &permuted);
        prop_assert_eq!(a.len(), transfers.len(), "every transfer is delivered");
        prop_assert_eq!(a, b, "insertion order leaked into deliveries");
    }
}

/// Largest |Δ| between the fair queue's and the reference's delivery of
/// one transfer on the small mixed-class inputs below: 1 ns, measured
/// over 400,000 random cases of their shape. Both links ceil every
/// planned finish to a whole nanosecond; where the two round a finish
/// that lands within rounding noise of a whole nanosecond differently,
/// they disagree by that nanosecond.
const MIXED_BOUND_NS: u64 = 1;

/// A transfer: start instant (ns), bytes, demand (bytes/s).
type Transfer = (u64, u64, f64);

/// Feeds `transfers` (sorted by start) to a link, tagging each with its
/// index, and drains it.
fn drive<L: SimComponent>(
    link: &mut L,
    transfers: &[Transfer],
    mut start: impl FnMut(&mut L, SimTime, u64, f64, u64),
) {
    link.init();
    for (i, &(at, bytes, demand)) in transfers.iter().enumerate() {
        start(link, SimTime::from_nanos(at), bytes, demand, i as u64);
    }
    link.advance_to(SimTime::MAX);
}

fn fair_queue(capacity: f64, transfers: &[Transfer]) -> Vec<LinkDelivery> {
    let mut link = FairShareLink::new(capacity).expect("positive capacity");
    drive(&mut link, transfers, |l, at, b, d, tag| l.start_transfer(at, b, d, tag));
    link.take_deliveries()
}

fn reference(capacity: f64, transfers: &[Transfer]) -> Vec<LinkDelivery> {
    let mut link = ReferenceLink::new(capacity).expect("positive capacity");
    drive(&mut link, transfers, |l, at, b, d, tag| l.start_transfer(at, b, d, tag));
    link.take_deliveries()
}

/// Delivery instant (ns) of every tag, checking each tag appears once.
fn by_tag(deliveries: &[LinkDelivery], n: usize) -> Result<Vec<u64>, String> {
    let mut at = vec![None; n];
    for d in deliveries {
        let slot = at.get_mut(d.tag as usize).ok_or(format!("unknown tag {}", d.tag))?;
        if slot.replace(d.at.as_nanos()).is_some() {
            return Err(format!("tag {} delivered twice", d.tag));
        }
    }
    at.into_iter()
        .enumerate()
        .map(|(tag, t)| t.ok_or(format!("tag {tag} never delivered")))
        .collect()
}

/// Largest per-transfer |Δ| (ns) between the fair queue and the
/// reference, after checking the fair queue's delivery order: time
/// order, tag order within an instant.
fn max_delta_ns(capacity: f64, transfers: &[Transfer]) -> Result<u64, String> {
    let ours = fair_queue(capacity, transfers);
    if !ours.windows(2).all(|w| (w[0].at, w[0].tag) < (w[1].at, w[1].tag)) {
        return Err("deliveries out of (instant, tag) order".into());
    }
    let a = by_tag(&ours, transfers.len())?;
    let b = by_tag(&reference(capacity, transfers), transfers.len())?;
    Ok(a.iter().zip(&b).map(|(x, y)| x.abs_diff(*y)).max().unwrap_or(0))
}

/// Builds time-sorted transfers from raw generator output: a start slot,
/// a byte count (every eighth one zero), and a demand class drawn from a
/// few fixed fractions of the capacity, a fixed small demand, twice the
/// capacity, or unbounded.
fn mixed_transfers(capacity: f64, unit_ns: u64, raw: &[(u64, u64, u8)]) -> Vec<Transfer> {
    let base = if capacity.is_finite() { capacity } else { 1000.0 };
    let mut t: Vec<Transfer> = raw
        .iter()
        .map(|&(slot, bytes, class)| {
            let bytes = if bytes.is_multiple_of(8) { 0 } else { bytes };
            let demand = match class % 5 {
                0 => base / 3.0,
                1 => base / 7.0,
                2 => 17.0,
                3 => base * 2.0,
                _ => f64::INFINITY,
            };
            (slot * unit_ns, bytes, demand)
        })
        .collect();
    t.sort_by_key(|x| x.0);
    t
}

fn capacity_from(raw: u32) -> f64 {
    if raw.is_multiple_of(8) {
        f64::INFINITY
    } else {
        f64::from(raw)
    }
}

/// Unit of the start slots: simultaneous starts at a 1 ns unit, widely
/// separated ones at 1 s.
fn unit_from(raw: u8) -> u64 {
    [1, 1_000, 1_000_000, 1_000_000_000][usize::from(raw % 4)]
}

/// Poisson starts of `n` equal transfers at `rate_per_sec` with a ±30%
/// sinusoidal modulation over `period_secs` (the shape of the client
/// tier's open-loop sessions).
fn poisson_transfers(
    seed: u64,
    n: usize,
    rate_per_sec: f64,
    period_secs: f64,
    bytes: u64,
    demand: f64,
) -> Vec<Transfer> {
    let mut rng = seqio_simcore::SimRng::seed_from(seed);
    let mut now = 0.0f64;
    (0..n)
        .map(|_| {
            let phase = now / period_secs * std::f64::consts::TAU;
            now += rng.exponential(1.0 / (rate_per_sec * (1.0 + 0.3 * phase.sin())));
            ((now * 1e9) as u64, bytes, demand)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The library allocator grants what the per-transfer reference
    /// water-fill grants, up to floating-point rounding.
    #[test]
    fn prop_allocator_matches_the_reference_allocator(
        capacity_raw in 1u32..1_000_000,
        raw in proptest::collection::vec(0u8..6, 1..40),
    ) {
        let capacity = f64::from(capacity_raw);
        let demands: Vec<f64> = raw
            .iter()
            .map(|&c| if c == 5 { f64::INFINITY } else { capacity / f64::from(c + 1) })
            .collect();
        let ours = max_min_rates(capacity, &demands);
        let theirs = reference_max_min_rates(capacity, &demands);
        for (i, (a, b)) in ours.iter().zip(&theirs).enumerate() {
            prop_assert!((a - b).abs() <= 1e-12 * b, "transfer {i}: {a} vs reference {b}");
        }
    }

    /// Differential: mixed demand classes, simultaneous starts, zero-byte
    /// transfers, infinite capacity and infinite demand all deliver every
    /// transfer within `MIXED_BOUND_NS` of the reference link.
    #[test]
    fn prop_fair_queue_matches_the_reference_link(
        capacity_raw in 1u32..1_000_000,
        unit_raw in any::<u8>(),
        raw in proptest::collection::vec((0u64..6, 0u64..100_000, any::<u8>()), 1..40),
    ) {
        let capacity = capacity_from(capacity_raw);
        let transfers = mixed_transfers(capacity, unit_from(unit_raw), &raw);
        let delta = max_delta_ns(capacity, &transfers)?;
        prop_assert!(delta <= MIXED_BOUND_NS, "a delivery moved {delta} ns from the reference");
    }

    /// Differential: transfers starting at exactly the instants the
    /// reference planned completions for. The earliest such start meets a
    /// completion still pending in both links, which must be delivered
    /// before the newcomer joins.
    #[test]
    fn prop_starts_at_planned_finishes_match_the_reference_link(
        capacity_raw in 1u32..1_000_000,
        unit_raw in any::<u8>(),
        raw in proptest::collection::vec((0u64..6, 1u64..100_000, any::<u8>()), 1..25),
        extra in proptest::collection::vec((0usize..64, 0u64..100_000, any::<u8>()), 1..6),
    ) {
        let capacity = capacity_from(capacity_raw);
        let mut transfers = mixed_transfers(capacity, unit_from(unit_raw), &raw);
        let finishes = reference(capacity, &transfers);
        let last_start = transfers.last().map_or(0, |t| t.0);
        let later: Vec<u64> =
            finishes.iter().map(|d| d.at.as_nanos()).filter(|&t| t >= last_start).collect();
        prop_assume!(!later.is_empty());
        for &(pick, bytes, class) in &extra {
            let at = later[pick % later.len()];
            let more = mixed_transfers(capacity, 1, &[(at, bytes | 1, class)]);
            transfers.push(more[0]);
        }
        transfers.sort_by_key(|x| x.0);
        let delta = max_delta_ns(capacity, &transfers)?;
        prop_assert!(delta <= MIXED_BOUND_NS, "a delivery moved {delta} ns from the reference");
    }

    /// Chunked advancing is bit-identical to one-shot advancing: the
    /// fair queue touches no floating-point state between events.
    #[test]
    fn prop_chunked_advance_matches_one_shot(
        capacity_raw in 1u32..1_000_000,
        unit_raw in any::<u8>(),
        raw in proptest::collection::vec((0u64..6, 0u64..100_000, any::<u8>()), 1..40),
        step_ns in 1u64..2_000_000_000,
    ) {
        let capacity = capacity_from(capacity_raw);
        let transfers = mixed_transfers(capacity, unit_from(unit_raw), &raw);
        let mut link = FairShareLink::new(capacity).expect("positive capacity");
        link.init();
        let mut clock = SimTime::ZERO;
        for (i, &(at, bytes, demand)) in transfers.iter().enumerate() {
            let at = SimTime::from_nanos(at);
            while clock + SimDuration::from_nanos(step_ns) < at {
                clock += SimDuration::from_nanos(step_ns);
                link.advance_to(clock);
            }
            link.start_transfer(at, bytes, demand, i as u64);
            clock = at;
        }
        while link.peek_next_time().is_some() {
            clock += SimDuration::from_nanos(step_ns);
            link.advance_to(clock);
        }
        prop_assert_eq!(link.take_deliveries(), fair_queue(capacity, &transfers));
    }

    /// No transfer finishes before its own bottleneck allows: `bytes /
    /// min(demand, capacity)` after its start, less 1 ns of rounding.
    #[test]
    fn prop_no_transfer_beats_its_bottleneck(
        capacity_raw in 1u32..1_000_000,
        unit_raw in any::<u8>(),
        raw in proptest::collection::vec((0u64..6, 0u64..100_000, any::<u8>()), 1..40),
    ) {
        let capacity = capacity_from(capacity_raw);
        let transfers = mixed_transfers(capacity, unit_from(unit_raw), &raw);
        let at = by_tag(&fair_queue(capacity, &transfers), transfers.len())?;
        for (i, (&(start, bytes, demand), &done)) in transfers.iter().zip(&at).enumerate() {
            let fastest = start as f64 + bytes as f64 / demand.min(capacity) * 1e9;
            prop_assert!(
                done as f64 >= fastest - 1.0,
                "transfer {i} done at {done} ns, before its bottleneck allows ({fastest} ns)"
            );
        }
    }

    /// Work conservation for unbounded transfers: a busy period (a maximal
    /// run of overlapping transfers) ends by its first start plus its
    /// bytes at full capacity, plus 1 ns per transfer for the ceiling of
    /// each completion.
    #[test]
    fn prop_busy_periods_end_within_the_work_bound(
        capacity_raw in 1u32..1_000_000,
        unit_raw in any::<u8>(),
        raw in proptest::collection::vec((0u64..6, 0u64..100_000), 1..40),
    ) {
        let capacity = f64::from(capacity_raw);
        let unit = unit_from(unit_raw);
        let mut transfers: Vec<Transfer> =
            raw.iter().map(|&(slot, bytes)| (slot * unit, bytes, f64::INFINITY)).collect();
        transfers.sort_by_key(|x| x.0);
        let at = by_tag(&fair_queue(capacity, &transfers), transfers.len())?;
        // (first start, bytes, transfers, last delivery) per busy period.
        let mut periods: Vec<(u64, u64, u64, u64)> = Vec::new();
        for (&(start, bytes, _), &done) in transfers.iter().zip(&at) {
            match periods.last_mut() {
                Some(p) if start < p.3 => {
                    p.1 += bytes;
                    p.2 += 1;
                    p.3 = p.3.max(done);
                }
                _ => periods.push((start, bytes, 1, done)),
            }
        }
        for (first, bytes, count, end) in periods {
            let bound = first as f64 + bytes as f64 / capacity * 1e9 + count as f64;
            prop_assert!(
                end as f64 <= bound,
                "busy period from {first} ns ends at {end} ns, past its work bound {bound} ns"
            );
        }
    }
}

/// The client tier's shape: one demand class capped well below the link,
/// Poisson arrivals. Every session runs at its cap, so each delivery is
/// within 1 ns of both the exact `start + bytes / demand` and the
/// reference.
#[test]
fn capped_single_class_is_within_a_nanosecond() {
    let demand = 0.5 * 1_048_576.0;
    let capacity = 300.0 * 1_048_576.0;
    let transfers = poisson_transfers(2026, 4_000, 1600.0, 2.5, 128 * 1024, demand);
    let at = by_tag(&fair_queue(capacity, &transfers), transfers.len()).unwrap();
    for (&(start, bytes, _), &done) in transfers.iter().zip(&at) {
        let exact = start + bytes * 1_000_000_000 / 524_288;
        assert!(done.abs_diff(exact) <= 1, "delivered at {done} ns, exact finish {exact} ns");
    }
    assert!(max_delta_ns(capacity, &transfers).unwrap() <= 1);
}

/// Largest |Δ| measured between the fair queue and the reference on a
/// saturated link of unbounded transfers: 5 ns over 60 seeds of the
/// 4,000-transfer shape below, 9 ns on the 105,648-transfer day, and
/// 15 ns on the 1,051,544 transfers of `probe slo`. Every session gets
/// the same share and the same bytes, so exact finishes land on whole
/// nanoseconds and rounding noise decides each ceiling; a completion
/// ceiled up holds its share for that nanosecond, delaying the rest of
/// its busy period by a fraction of a nanosecond, and over thousands of
/// completions in one busy period those fractions add up differently in
/// the two links.
const SATURATED_BOUND_NS: u64 = 15;

fn saturated_transfers(seed: u64, n: usize, rate_per_sec: f64, period_secs: f64) -> Vec<Transfer> {
    poisson_transfers(seed, n, rate_per_sec, period_secs, 128 * 1024, f64::INFINITY)
}

#[test]
fn saturated_uncapped_link_stays_within_the_measured_cascade() {
    let capacity = 250.0 * 1_048_576.0;
    for seed in [2026, 4242] {
        let transfers = saturated_transfers(seed, 4_000, 2400.0, 2.5);
        let delta = max_delta_ns(capacity, &transfers).unwrap();
        assert!(delta <= SATURATED_BOUND_NS, "seed {seed}: a delivery moved {delta} ns");
    }
}

/// The open-loop client shape at full size: 105,648 sessions at 1600/s
/// over 66 s on an uncapped 250 MiB/s link (the reference takes seconds
/// per run even in release builds).
#[test]
#[ignore]
fn saturated_full_day_stays_within_the_measured_cascade() {
    let capacity = 250.0 * 1_048_576.0;
    let transfers = saturated_transfers(2026, 105_648, 1600.0, 66.0);
    let delta = max_delta_ns(capacity, &transfers).unwrap();
    assert!(delta <= SATURATED_BOUND_NS, "a delivery moved {delta} ns");
}
