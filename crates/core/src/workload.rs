//! The cloud OLTP workload: transactions T1–T4 (plus the T5 range-scan
//! extension), mixes, and access distributions (paper Table II and
//! Section II-B).

use cb_sim::DetRng;

/// The CloudyBench transactions (T1–T4 from the paper, plus the T5
/// range-scan used by the scan-resistance eviction experiments).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum TxnKind {
    /// T1 — New Orderline (write-only INSERT).
    NewOrderline,
    /// T2 — Order Payment (read-write: SELECT + 2 UPDATEs).
    OrderPayment,
    /// T3 — Order Status (read-only SELECT).
    OrderStatus,
    /// T4 — Orderline Deletion (DELETE).
    OrderlineDeletion,
    /// T5 — Order Range Scan (read-only range sweep over the orders table).
    /// Not part of the paper's mixes; it exists to pollute the buffer pool
    /// with one-touch pages so replacement policies can be compared.
    OrderRangeScan,
}

impl TxnKind {
    /// Short label ("T1"…"T5").
    pub(crate) fn label(self) -> &'static str {
        match self {
            TxnKind::NewOrderline => "T1",
            TxnKind::OrderPayment => "T2",
            TxnKind::OrderStatus => "T3",
            TxnKind::OrderlineDeletion => "T4",
            TxnKind::OrderRangeScan => "T5",
        }
    }

    /// True if the transaction only reads.
    pub(crate) fn is_read_only(self) -> bool {
        self == TxnKind::OrderStatus || self == TxnKind::OrderRangeScan
    }
}

/// A transaction mix as weights over T1..T4, plus an optional T5 scan
/// weight (zero in every paper mix).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TxnMix {
    /// Weight of T1 (New Orderline).
    pub t1: f64,
    /// Weight of T2 (Order Payment).
    pub t2: f64,
    /// Weight of T3 (Order Status).
    pub t3: f64,
    /// Weight of T4 (Orderline Deletion).
    pub t4: f64,
    /// Weight of T5 (Order Range Scan). Zero for all paper mixes; positive
    /// only in the scan-resistance workloads.
    pub scan: f64,
}

impl TxnMix {
    /// Build a mix over T1..T4; at least one weight must be positive.
    pub fn new(t1: f64, t2: f64, t3: f64, t4: f64) -> Self {
        assert!(
            t1 >= 0.0 && t2 >= 0.0 && t3 >= 0.0 && t4 >= 0.0,
            "negative weight"
        );
        assert!(t1 + t2 + t3 + t4 > 0.0, "all weights zero");
        TxnMix {
            t1,
            t2,
            t3,
            t4,
            scan: 0.0,
        }
    }

    /// Add a T5 range-scan weight to this mix.
    pub fn with_scan(mut self, scan: f64) -> Self {
        assert!(scan >= 0.0, "negative weight");
        self.scan = scan;
        self
    }

    /// The scan-resistance mix: a hot point-read stream (T3) polluted by
    /// periodic range sweeps (T5). Pair with a skewed
    /// [`AccessDistribution::Zipfian`] so the point reads have a hot set a
    /// scan-resistant policy can protect.
    pub fn scan_resistant(scan_pct: f64) -> Self {
        assert!((0.0..100.0).contains(&scan_pct), "scan_pct in [0, 100)");
        TxnMix::new(0.0, 0.0, 100.0 - scan_pct, 0.0).with_scan(scan_pct)
    }

    /// The paper's read-only pattern: (t1:t2:t3) = (0:0:100).
    pub fn read_only() -> Self {
        TxnMix::new(0.0, 0.0, 100.0, 0.0)
    }

    /// The paper's read-write pattern: (t1:t2:t3) = (15:5:80).
    pub fn read_write() -> Self {
        TxnMix::new(15.0, 5.0, 80.0, 0.0)
    }

    /// The paper's write-only pattern: (t1:t2:t3) = (100:0:0).
    pub fn write_only() -> Self {
        TxnMix::new(100.0, 0.0, 0.0, 0.0)
    }

    /// A lag-time IUD mix: insert (T1) / update (T2) / delete (T4)
    /// percentages, e.g. the paper's (60, 30, 10).
    pub fn iud(insert: f64, update: f64, delete: f64) -> Self {
        TxnMix::new(insert, update, 0.0, delete)
    }

    /// Sample a transaction kind.
    pub(crate) fn pick(&self, rng: &mut DetRng) -> TxnKind {
        const KINDS: [TxnKind; 5] = [
            TxnKind::NewOrderline,
            TxnKind::OrderPayment,
            TxnKind::OrderStatus,
            TxnKind::OrderlineDeletion,
            TxnKind::OrderRangeScan,
        ];
        // Paper mixes never carry a scan weight; keep their RNG draw over
        // exactly four weights so every pre-T5 run stays bit-identical
        // (same draw, same fallback index on the degenerate float edge).
        if self.scan == 0.0 {
            KINDS[rng.pick_weighted(&[self.t1, self.t2, self.t3, self.t4])]
        } else {
            KINDS[rng.pick_weighted(&[self.t1, self.t2, self.t3, self.t4, self.scan])]
        }
    }

    /// Human-readable mix label.
    pub fn label(&self) -> String {
        if *self == TxnMix::read_only() {
            "RO".to_string()
        } else if *self == TxnMix::read_write() {
            "RW".to_string()
        } else if *self == TxnMix::write_only() {
            "WO".to_string()
        } else if self.scan > 0.0 {
            format!(
                "({}:{}:{}:{}:{})",
                self.t1, self.t2, self.t3, self.t4, self.scan
            )
        } else {
            format!("({}:{}:{}:{})", self.t1, self.t2, self.t3, self.t4)
        }
    }
}

/// How substitution parameters are chosen (paper Section II-B1, plus the
/// Zipfian skew used by the eviction-policy experiments).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessDistribution {
    /// Parameters drawn uniformly from the key range.
    Uniform,
    /// The `latest-N` skew: T2 updates N specific (most recent) orders and
    /// T3 reads those same orders — the more skewed, the fresher the reads.
    Latest(u32),
    /// YCSB-style Zipfian skew with θ given in per-mille (e.g.
    /// `Zipfian(990)` is the classic θ = 0.99), so the variant stays `Eq`
    /// and hashable. Rank 0 (the hottest key) maps to the low end of the
    /// range, so the hot set is contiguous — a small, protectable page
    /// footprint. Requires θ < 1 (per-mille < 1000).
    Zipfian(u16),
}

impl AccessDistribution {
    /// Pick an order id from `[lo, hi]` under this distribution. Every
    /// variant consumes exactly one RNG draw.
    pub fn pick_order(&self, rng: &mut DetRng, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        match self {
            AccessDistribution::Uniform => rng.range_inclusive(lo, hi),
            AccessDistribution::Latest(n) => {
                let n = i64::from(*n).max(1).min(hi - lo + 1);
                rng.range_inclusive(hi - n + 1, hi)
            }
            AccessDistribution::Zipfian(pm) => lo + Zipfian::new(*pm, hi - lo + 1).rank(rng.unit()),
        }
    }
}

/// The constants of the Zipfian sampler over `len` keys at θ = `pm`/1000.
/// They depend on the range length and θ only, so a caller drawing many
/// times from one range builds them once ([`OrderPicker`]).
#[derive(Clone, Copy, Debug)]
struct Zipfian {
    pm: u16,
    len: i64,
    zetan: f64,
    zeta2: f64,
    alpha: f64,
    eta: f64,
}

impl Zipfian {
    fn new(pm: u16, len: i64) -> Self {
        assert!(pm < 1000, "Zipfian θ must be < 1");
        let n = len as f64;
        let theta = f64::from(pm) / 1000.0;
        // YCSB's rejection-free sampler with the harmonic sums in closed
        // form (integral approximation of ζ(n, θ); exact for ζ(2, θ)) —
        // O(1) per draw, no precomputed tables, and a pure function of
        // (seed, range), so runs stay deterministic whatever order tenants
        // sample in.
        let zetan = 1.0 + (n.powf(1.0 - theta) - 1.0) / (1.0 - theta);
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            pm,
            len,
            zetan,
            zeta2,
            alpha,
            eta,
        }
    }

    /// The rank in `0..len` (0 = the hottest key) of the unit draw `u`.
    fn rank(&self, u: f64) -> i64 {
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < self.zeta2 {
            1
        } else {
            (self.len as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as i64
        };
        rank.clamp(0, self.len - 1)
    }
}

/// Draws order ids exactly as [`AccessDistribution::pick_order`] does,
/// keeping the [`Zipfian`] constants of the last range and θ it drew
/// from: a tenant draws from one range all run long, so they are built
/// once instead of on every draw.
#[derive(Debug, Default)]
pub(crate) struct OrderPicker {
    zipfian: Option<Zipfian>,
}

impl OrderPicker {
    /// [`AccessDistribution::pick_order`] of `dist` over `[lo, hi]`.
    pub(crate) fn pick(
        &mut self,
        dist: &AccessDistribution,
        rng: &mut DetRng,
        lo: i64,
        hi: i64,
    ) -> i64 {
        let AccessDistribution::Zipfian(pm) = *dist else {
            return dist.pick_order(rng, lo, hi);
        };
        debug_assert!(lo <= hi);
        let len = hi - lo + 1;
        let z = match self.zipfian {
            Some(z) if (z.pm, z.len) == (pm, len) => z,
            _ => *self.zipfian.insert(Zipfian::new(pm, len)),
        };
        lo + z.rank(rng.unit())
    }
}

/// The slice of the key space one tenant works on. Tenants partition the
/// shared schema so their row accesses never collide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyPartition {
    /// Lowest order id (inclusive).
    pub orders_lo: i64,
    /// Highest order id (inclusive).
    pub orders_hi: i64,
    /// Lowest customer id (inclusive).
    pub customers_lo: i64,
    /// Highest customer id (inclusive).
    pub customers_hi: i64,
}

impl KeyPartition {
    /// The full key space of a dataset with the given row counts.
    pub fn whole(orders: u64, customers: u64) -> Self {
        KeyPartition {
            orders_lo: 1,
            orders_hi: orders as i64,
            customers_lo: 1,
            customers_hi: customers as i64,
        }
    }

    /// Partition the key space into `n` equal tenant slices; `i` in `0..n`.
    pub fn tenant_slice(orders: u64, customers: u64, i: usize, n: usize) -> Self {
        assert!(n > 0 && i < n);
        let slice = |total: u64| {
            let per = (total / n as u64).max(1);
            let lo = 1 + i as u64 * per;
            let hi = if i == n - 1 { total } else { lo + per - 1 };
            (lo as i64, hi as i64)
        };
        let (olo, ohi) = slice(orders);
        let (clo, chi) = slice(customers);
        KeyPartition {
            orders_lo: olo,
            orders_hi: ohi,
            customers_lo: clo,
            customers_hi: chi,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mixes() {
        assert_eq!(TxnMix::read_only().label(), "RO");
        assert_eq!(TxnMix::read_write().label(), "RW");
        assert_eq!(TxnMix::write_only().label(), "WO");
        let weights = |m: TxnMix| (m.t1, m.t2, m.t3, m.t4, m.scan);
        assert_eq!(weights(TxnMix::read_only()), (0.0, 0.0, 100.0, 0.0, 0.0));
        assert_eq!(weights(TxnMix::write_only()), (100.0, 0.0, 0.0, 0.0, 0.0));
        assert_eq!(weights(TxnMix::read_write()), (15.0, 5.0, 80.0, 0.0, 0.0));
    }

    #[test]
    fn mix_sampling_respects_weights() {
        let mix = TxnMix::read_write();
        let mut rng = DetRng::seeded(1);
        let mut counts = [0u32; 5];
        for _ in 0..10_000 {
            match mix.pick(&mut rng) {
                TxnKind::NewOrderline => counts[0] += 1,
                TxnKind::OrderPayment => counts[1] += 1,
                TxnKind::OrderStatus => counts[2] += 1,
                TxnKind::OrderlineDeletion => counts[3] += 1,
                TxnKind::OrderRangeScan => counts[4] += 1,
            }
        }
        assert!((1300..1700).contains(&counts[0]), "{counts:?}");
        assert!((350..650).contains(&counts[1]), "{counts:?}");
        assert!((7700..8300).contains(&counts[2]), "{counts:?}");
        assert_eq!(counts[3], 0);
        assert_eq!(counts[4], 0, "paper mixes never sample T5");
    }

    #[test]
    fn scan_mix_samples_t5_without_perturbing_zero_scan_draws() {
        let mix = TxnMix::scan_resistant(10.0);
        assert_eq!(
            (mix.t1, mix.t2, mix.t4),
            (0.0, 0.0, 0.0),
            "T3 + T5 is read-only"
        );
        let mut rng = DetRng::seeded(6);
        let mut scans = 0u32;
        for _ in 0..10_000 {
            let k = mix.pick(&mut rng);
            assert!(k.is_read_only());
            if k == TxnKind::OrderRangeScan {
                scans += 1;
            }
        }
        assert!((800..1200).contains(&scans), "scans = {scans}");
        // A zero scan weight must keep the exact pre-T5 draw sequence:
        // same seed, same picks as the four-weight sampler.
        let four = TxnMix::read_write();
        let mut a = DetRng::seeded(7);
        let mut b = DetRng::seeded(7);
        for _ in 0..1_000 {
            let got = four.pick(&mut a);
            let want = [
                TxnKind::NewOrderline,
                TxnKind::OrderPayment,
                TxnKind::OrderStatus,
                TxnKind::OrderlineDeletion,
            ][b.pick_weighted(&[four.t1, four.t2, four.t3, four.t4])];
            assert_eq!(got, want);
        }
    }

    #[test]
    fn zipfian_skews_toward_the_low_end() {
        let d = AccessDistribution::Zipfian(990);
        let mut rng = DetRng::seeded(8);
        let mut hot = 0u32;
        let mut in_range = true;
        for _ in 0..10_000 {
            let k = d.pick_order(&mut rng, 1, 10_000);
            in_range &= (1..=10_000).contains(&k);
            // The hottest 1% of keys should absorb the majority of draws
            // at θ = 0.99.
            if k <= 100 {
                hot += 1;
            }
        }
        assert!(in_range);
        assert!(hot > 5_000, "hot-100 draws = {hot}");
        // Degenerate single-key range never escapes it.
        for _ in 0..100 {
            assert_eq!(d.pick_order(&mut rng, 42, 42), 42);
        }
        // Milder skew spreads out more.
        let mild = AccessDistribution::Zipfian(500);
        let mut mild_hot = 0u32;
        for _ in 0..10_000 {
            if mild.pick_order(&mut rng, 1, 10_000) <= 100 {
                mild_hot += 1;
            }
        }
        assert!(mild_hot < hot, "θ0.5 {mild_hot} < θ0.99 {hot}");
    }

    /// FNV-1a-64 over `draws` order ids.
    fn draw_digest(draws: impl Iterator<Item = i64>) -> u64 {
        draws.fold(0xcbf2_9ce4_8422_2325u64, |h, k| {
            (h ^ k as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Digests of 10 000 draws each at θ = 0.99 and θ = 0.9 over SF 1's
    /// orders, then of 10 000 draws at θ = 0.99 that alternate between two
    /// tenant slices of different lengths, all drawn through `pick`.
    fn zipfian_digests(
        mut pick: impl FnMut(&AccessDistribution, &mut DetRng, i64, i64) -> i64,
    ) -> Vec<u64> {
        let mut rng = DetRng::seeded(31337);
        let mut digests = Vec::new();
        for pm in [990, 900] {
            let d = AccessDistribution::Zipfian(pm);
            digests.push(draw_digest(
                (0..10_000).map(|_| pick(&d, &mut rng, 1, 300_000)),
            ));
        }
        let slices = [0, 6].map(|i| KeyPartition::tenant_slice(300_000, 30_000, i, 7));
        let lens = slices.map(|s| s.orders_hi - s.orders_lo + 1);
        assert_ne!(lens[0], lens[1], "the two slices differ in length");
        let d = AccessDistribution::Zipfian(990);
        digests.push(draw_digest((0..10_000).map(|i| {
            let s = slices[i % 2];
            pick(&d, &mut rng, s.orders_lo, s.orders_hi)
        })));
        digests
    }

    /// The Zipfian sampler, pinned: [`pick_order`] and the memo of
    /// [`OrderPicker`], which sees θ and the range change under it, give
    /// the same digests. A sampler that rounds one draw differently fails
    /// here.
    ///
    /// [`pick_order`]: AccessDistribution::pick_order
    #[test]
    fn zipfian_draws_are_pinned() {
        let pinned = [
            0xa802_3358_e744_723d,
            0x9f2f_6e71_5d59_6cfa,
            0xf13b_c01b_b442_5ac7,
        ];
        assert_eq!(
            zipfian_digests(|d, rng, lo, hi| d.pick_order(rng, lo, hi)),
            pinned
        );
        let mut picker = OrderPicker::default();
        assert_eq!(
            zipfian_digests(|d, rng, lo, hi| picker.pick(d, rng, lo, hi)),
            pinned
        );
    }

    proptest::proptest! {
        /// The memo draws what `pick_order` draws, one RNG step each, while
        /// the distribution, θ and the range change between calls.
        #[test]
        fn order_picker_draws_what_pick_order_draws(
            calls in proptest::collection::vec((0u16..1_000, 0u8..4, -50i64..50, 0i64..2_000, 1usize..20), 1..40),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut picker = OrderPicker::default();
            let (mut a, mut b) = (DetRng::seeded(seed), DetRng::seeded(seed));
            for (pm, kind, lo, span, repeat) in calls {
                let dist = match kind {
                    0 => AccessDistribution::Uniform,
                    1 => AccessDistribution::Latest(u32::from(pm)),
                    _ => AccessDistribution::Zipfian(pm),
                };
                for _ in 0..repeat {
                    proptest::prop_assert_eq!(
                        picker.pick(&dist, &mut a, lo, lo + span),
                        dist.pick_order(&mut b, lo, lo + span)
                    );
                }
            }
            proptest::prop_assert_eq!(a.unit(), b.unit());
        }
    }

    #[test]
    fn iud_mix_uses_t1_t2_t4() {
        let mix = TxnMix::iud(60.0, 30.0, 10.0);
        let mut rng = DetRng::seeded(2);
        for _ in 0..100 {
            assert_ne!(mix.pick(&mut rng), TxnKind::OrderStatus);
        }
    }

    #[test]
    fn uniform_covers_range() {
        let d = AccessDistribution::Uniform;
        let mut rng = DetRng::seeded(3);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            let k = d.pick_order(&mut rng, 1, 50);
            assert!((1..=50).contains(&k));
            lo_seen |= k == 1;
            hi_seen |= k == 50;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn latest_n_confines_to_top_keys() {
        let d = AccessDistribution::Latest(10);
        let mut rng = DetRng::seeded(4);
        for _ in 0..2000 {
            let k = d.pick_order(&mut rng, 1, 1000);
            assert!((991..=1000).contains(&k), "k = {k}");
        }
        // N larger than the range degrades to uniform over the range.
        let wide = AccessDistribution::Latest(1000);
        for _ in 0..100 {
            let k = wide.pick_order(&mut rng, 5, 10);
            assert!((5..=10).contains(&k));
        }
    }

    #[test]
    fn tenant_slices_partition_cleanly() {
        let slices: Vec<KeyPartition> = (0..3)
            .map(|i| KeyPartition::tenant_slice(300, 300, i, 3))
            .collect();
        assert_eq!(slices[0].orders_lo, 1);
        assert_eq!(slices[0].orders_hi, 100);
        assert_eq!(slices[1].orders_lo, 101);
        assert_eq!(slices[2].orders_hi, 300);
        // No overlap.
        for w in slices.windows(2) {
            assert!(w[0].orders_hi < w[1].orders_lo);
        }
        // Whole covers everything.
        let whole = KeyPartition::whole(300, 300);
        assert_eq!((whole.orders_lo, whole.orders_hi), (1, 300));
    }
}
