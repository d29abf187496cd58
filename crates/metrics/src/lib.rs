//! # pama-metrics
//!
//! Lock-free observability for the PAMA cache: per-penalty-band
//! counters, atomic latency histograms, and text exposition.
//!
//! PAMA's whole premise is that service cost is driven by *per-band*
//! miss penalty (paper §III), yet aggregate hit/miss counters cannot
//! show which band is absorbing misses or whether slab grants flow
//! toward high-penalty subclasses. The [`MetricsRegistry`] answers
//! that: a block of `AtomicU64` cells per penalty band (hits, misses,
//! penalty-weighted miss cost, evictions, slab moves), plus aggregate
//! histograms for hit/miss latency and slab-move duration. Everything
//! is updated with `Relaxed` atomics from the cache's hot paths and
//! snapshotted without locking, the same contract as `pama-kv`'s shard
//! counters.
//!
//! The band cells are **striped**: the registry holds one
//! cache-line-aligned stripe of cells per writer (in `pama-kv`, per
//! shard), each writer bumps only its own stripe, and
//! [`MetricsRegistry::snapshot`] sums the stripes. Threads hitting
//! different shards therefore never write the same cache line, while
//! every snapshot — and so every rendering of it — reads exactly as an
//! unstriped registry would.
//!
//! Overhead budget (see DESIGN.md §8): band counters are one or two
//! relaxed `fetch_add`s per operation on a writer-local line; latency
//! timing — the expensive part, two clock reads — is *sampled* (1 in
//! [`LATENCY_SAMPLE`] operations). `pama-kv` attaches a registry to
//! every cache, and its band cells are the cache's only
//! hit/miss/eviction counts.
//!
//! ```
//! use pama_metrics::MetricsRegistry;
//!
//! // Five bands, two stripes.
//! let reg = MetricsRegistry::new(vec![1_000, 10_000, 100_000, 1_000_000, 5_000_000], 2);
//! reg.band(0, 2).hits.inc();
//! reg.band(1, 2).hits.inc();
//! reg.band(1, 2).penalty_cost_us.add(50_000);
//! let snap = reg.snapshot();
//! assert_eq!(snap.bands[2].hits, 2);
//! assert_eq!(snap.total_hits(), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::atomic::{AtomicU64, Ordering};

/// Latency is timed on one in this many operations (power of two).
/// Sampling keeps the two clock reads off the common hot path; with
/// uniform op cost the sampled distribution converges to the true one.
pub const LATENCY_SAMPLE: u64 = 64;

/// A monotonically increasing `Relaxed` atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins gauge (point-in-time value, not cumulative).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two buckets in an [`AtomicHistogram`]. Bucket
/// `i` covers `[2^i, 2^(i+1))` microseconds (value 0 lands in bucket
/// 0); 32 buckets span 1 µs to over an hour, which covers every
/// latency this system can produce.
pub const HIST_BUCKETS: usize = 32;

/// A lock-free power-of-two histogram over `u64` (microseconds by
/// convention), the concurrent sibling of `pama_util::hist::LogHistogram`.
///
/// Samples at or above the top bucket's lower bound clamp into the
/// **last** bucket — never one past it (the top-edge overflow class of
/// bug the linear histogram in `pama-util` is also guarded against).
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: [AtomicU64; HIST_BUCKETS],
    total: AtomicU64,
    sum: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Index of the bucket holding `x`, clamped to the last bucket.
    #[inline]
    pub fn bucket_of(x: u64) -> usize {
        let b = if x == 0 { 0 } else { 63 - x.leading_zeros() as usize };
        b.min(HIST_BUCKETS - 1)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, x: u64) {
        self.counts[Self::bucket_of(x)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(x, Ordering::Relaxed);
    }

    /// Point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            total: self.total.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data copy of an [`AtomicHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts; bucket `i` covers `[2^i, 2^(i+1))`.
    pub counts: [u64; HIST_BUCKETS],
    /// Total samples.
    pub total: u64,
    /// Sum of all recorded values (exact mean = `sum / total`).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Exact arithmetic mean of the recorded values.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Approximate `q`-quantile: the geometric midpoint of the bucket
    /// containing the target rank.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut acc = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                let lo = (1u64 << i).max(1);
                return Some(lo + lo / 2);
            }
        }
        Some(1u64 << (HIST_BUCKETS - 1))
    }
}

/// One penalty band's live cells in one stripe. Every hit/miss/eviction
/// records into exactly one band of one stripe, and the cache's
/// aggregate counts are the sums over bands and stripes.
///
/// Aligned to a cache line so that cells of different stripes never
/// share one.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct BandCells {
    /// GETs served from cache for items in this band.
    pub hits: Counter,
    /// GETs that missed a key whose (estimated) penalty maps here.
    pub misses: Counter,
    /// Penalty-weighted miss cost: the sum over misses of the missed
    /// key's estimated regeneration penalty, µs. This is the paper's
    /// service-time integrand — the number PAMA exists to minimise.
    pub penalty_cost_us: Counter,
    /// Items evicted from this band's subclasses.
    pub evictions: Counter,
    /// Cross-class slab migrations whose candidate slab was drawn from
    /// this band's subclass.
    pub slab_moves: Counter,
}

/// A plain-data copy of one band's counters plus its penalty range.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BandSnapshot {
    /// Exclusive lower penalty edge, µs (0 for the first band).
    pub lo_us: u64,
    /// Inclusive upper penalty edge, µs.
    pub hi_us: u64,
    /// See [`BandCells::hits`].
    pub hits: u64,
    /// See [`BandCells::misses`].
    pub misses: u64,
    /// See [`BandCells::penalty_cost_us`].
    pub penalty_cost_us: u64,
    /// See [`BandCells::evictions`].
    pub evictions: u64,
    /// See [`BandCells::slab_moves`].
    pub slab_moves: u64,
}

impl BandSnapshot {
    /// The canonical one-line wire rendering used by the server's
    /// `stats bands` command and parsed back by `repro obs`; keep the
    /// two in sync through this single definition.
    pub fn render(&self) -> String {
        format!(
            "lo_us={} hi_us={} hits={} misses={} penalty_cost_us={} evictions={} slab_moves={}",
            self.lo_us,
            self.hi_us,
            self.hits,
            self.misses,
            self.penalty_cost_us,
            self.evictions,
            self.slab_moves
        )
    }

    /// Parses a [`Self::render`] line back into a snapshot (used by
    /// `repro obs` to verify the wire against the in-process registry).
    pub fn parse(line: &str) -> Option<BandSnapshot> {
        let mut s = BandSnapshot::default();
        for tok in line.split_whitespace() {
            let (name, value) = tok.split_once('=')?;
            let v: u64 = value.parse().ok()?;
            match name {
                "lo_us" => s.lo_us = v,
                "hi_us" => s.hi_us = v,
                "hits" => s.hits = v,
                "misses" => s.misses = v,
                "penalty_cost_us" => s.penalty_cost_us = v,
                "evictions" => s.evictions = v,
                "slab_moves" => s.slab_moves = v,
                _ => return None,
            }
        }
        Some(s)
    }
}

/// The cache-wide observability registry: striped per-band counter
/// blocks, aggregate counters/gauges, and sampled latency histograms.
/// One instance is shared (via `Arc`) by every shard of a cache and by
/// whatever front end exposes it.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Inclusive upper penalty edge of each band, µs, ascending.
    band_bounds_us: Vec<u64>,
    /// Stripe-major band cells: stripe `s` owns
    /// `cells[s * bands .. (s + 1) * bands]`.
    cells: Vec<BandCells>,
    stripes: usize,
    /// Slabs granted from the free pool (class-level event; grants are
    /// not band-attributed because a fresh slab has no band yet).
    pub slab_grants: Counter,
    /// Hit-path latency, µs, sampled 1/[`LATENCY_SAMPLE`].
    pub hit_latency_us: AtomicHistogram,
    /// Miss-path latency, µs, sampled 1/[`LATENCY_SAMPLE`].
    pub miss_latency_us: AtomicHistogram,
    /// Physical slab transfer (compaction + re-carve) duration, µs;
    /// rare enough to record unsampled.
    pub slab_move_us: AtomicHistogram,
    /// Slabs currently carved across all arenas.
    pub arena_slabs: Gauge,
    /// Free slots across carved slabs.
    pub arena_free_slots: Gauge,
    /// Arena-resident bytes (slab backing memory + slot metadata).
    pub arena_resident_bytes: Gauge,
}

impl MetricsRegistry {
    /// A registry over the given ascending inclusive band upper edges
    /// (µs), with `stripes` independent stripes of band cells (at least
    /// one). The paper's five-band split is
    /// `[1_000, 10_000, 100_000, 1_000_000, 5_000_000]`.
    ///
    /// # Panics
    /// Panics when `band_bounds_us` is empty.
    pub fn new(band_bounds_us: Vec<u64>, stripes: usize) -> Self {
        assert!(!band_bounds_us.is_empty(), "at least one penalty band required");
        let stripes = stripes.max(1);
        let cells = (0..stripes * band_bounds_us.len()).map(|_| BandCells::default()).collect();
        Self {
            band_bounds_us,
            cells,
            stripes,
            slab_grants: Counter::default(),
            hit_latency_us: AtomicHistogram::new(),
            miss_latency_us: AtomicHistogram::new(),
            slab_move_us: AtomicHistogram::new(),
            arena_slabs: Gauge::default(),
            arena_free_slots: Gauge::default(),
            arena_resident_bytes: Gauge::default(),
        }
    }

    /// Number of penalty bands.
    pub fn num_bands(&self) -> usize {
        self.band_bounds_us.len()
    }

    /// The live cells of band `band` in stripe `stripe`. Both indices
    /// clamp to the last band / stripe, so an out-of-range index from a
    /// foreign config cannot panic a hot path.
    #[inline]
    pub fn band(&self, stripe: usize, band: usize) -> &BandCells {
        let bands = self.band_bounds_us.len();
        &self.cells[stripe.min(self.stripes - 1) * bands + band.min(bands - 1)]
    }

    /// Whether this operation should pay for latency timing: 1 in
    /// [`LATENCY_SAMPLE`] by the low bits of `tag` (the op's key
    /// hash). Hash-based rather than a counter: a registry-wide
    /// `fetch_add` per GET measured at ~7% of a hot-loop op all by
    /// itself, and even a TLS tick costs a few ns, while the key hash
    /// is already in a register and its low bits are uniform. The
    /// trade: sampling is per-*key* (a given key is always or never
    /// timed), which is fine for a latency distribution but means the
    /// decision must not feed anything key-sensitive.
    #[inline]
    pub fn sample_latency(&self, tag: u64) -> bool {
        tag.is_multiple_of(LATENCY_SAMPLE)
    }

    /// Point-in-time plain-data copy of everything; each band's
    /// counters are the sums over all stripes.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut bands: Vec<BandSnapshot> = self
            .band_bounds_us
            .iter()
            .enumerate()
            .map(|(i, &hi_us)| BandSnapshot {
                lo_us: if i == 0 { 0 } else { self.band_bounds_us[i - 1] },
                hi_us,
                ..BandSnapshot::default()
            })
            .collect();
        for stripe in self.cells.chunks(bands.len()) {
            for (b, c) in bands.iter_mut().zip(stripe) {
                b.hits += c.hits.get();
                b.misses += c.misses.get();
                b.penalty_cost_us += c.penalty_cost_us.get();
                b.evictions += c.evictions.get();
                b.slab_moves += c.slab_moves.get();
            }
        }
        MetricsSnapshot {
            bands,
            slab_grants: self.slab_grants.get(),
            hit_latency: self.hit_latency_us.snapshot(),
            miss_latency: self.miss_latency_us.snapshot(),
            slab_move: self.slab_move_us.snapshot(),
            arena_slabs: self.arena_slabs.get(),
            arena_free_slots: self.arena_free_slots.get(),
            arena_resident_bytes: self.arena_resident_bytes.get(),
        }
    }
}

/// A plain-data copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Per-band counters, band 0 first.
    pub bands: Vec<BandSnapshot>,
    /// See [`MetricsRegistry::slab_grants`].
    pub slab_grants: u64,
    /// Sampled hit latency.
    pub hit_latency: HistogramSnapshot,
    /// Sampled miss latency.
    pub miss_latency: HistogramSnapshot,
    /// Slab transfer duration.
    pub slab_move: HistogramSnapshot,
    /// See [`MetricsRegistry::arena_slabs`].
    pub arena_slabs: u64,
    /// See [`MetricsRegistry::arena_free_slots`].
    pub arena_free_slots: u64,
    /// See [`MetricsRegistry::arena_resident_bytes`].
    pub arena_resident_bytes: u64,
}

impl MetricsSnapshot {
    /// Sum of per-band hits — the cache's aggregate hit count.
    pub fn total_hits(&self) -> u64 {
        self.bands.iter().map(|b| b.hits).sum()
    }

    /// Sum of per-band misses — the cache's aggregate miss count.
    pub fn total_misses(&self) -> u64 {
        self.bands.iter().map(|b| b.misses).sum()
    }

    /// Sum of per-band evictions — the cache's aggregate eviction count.
    pub fn total_evictions(&self) -> u64 {
        self.bands.iter().map(|b| b.evictions).sum()
    }

    /// Sum of per-band penalty-weighted miss cost, µs.
    pub fn total_penalty_cost_us(&self) -> u64 {
        self.bands.iter().map(|b| b.penalty_cost_us).sum()
    }

    /// Flat `(name, value)` pairs in Prometheus text-exposition shape
    /// (`name{label="…"}` / plain name → decimal value). The server's
    /// `stats metrics` command emits these as `STAT` lines and
    /// `pamactl metrics` renders them back; names carry no spaces so
    /// they survive the `STAT name value` framing.
    pub fn prometheus_lines(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        // Family-major order (every band of one family before the next
        // family): the exposition format wants all samples of a family
        // contiguous under one HELP/TYPE header.
        for (metric, value) in [
            ("hits_total", &|b: &BandSnapshot| b.hits),
            ("misses_total", &|b: &BandSnapshot| b.misses),
            ("penalty_cost_us_total", &|b: &BandSnapshot| b.penalty_cost_us),
            ("evictions_total", &|b: &BandSnapshot| b.evictions),
            ("slab_moves_total", &|b: &BandSnapshot| b.slab_moves),
        ] as [(&str, &dyn Fn(&BandSnapshot) -> u64); 5]
        {
            for (i, b) in self.bands.iter().enumerate() {
                out.push((format!("pama_band_{metric}{{band=\"{i}\"}}"), value(b).to_string()));
            }
        }
        out.push(("pama_slab_grants_total".into(), self.slab_grants.to_string()));
        out.push(("pama_arena_slabs".into(), self.arena_slabs.to_string()));
        out.push(("pama_arena_free_slots".into(), self.arena_free_slots.to_string()));
        out.push(("pama_arena_resident_bytes".into(), self.arena_resident_bytes.to_string()));
        for (name, h) in [
            ("pama_hit_latency_us", &self.hit_latency),
            ("pama_miss_latency_us", &self.miss_latency),
            ("pama_slab_move_us", &self.slab_move),
        ] {
            let mut acc = 0;
            for (i, &c) in h.counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                acc += c;
                let le = (1u128 << (i + 1)) - 1; // inclusive upper edge of bucket i
                out.push((format!("{name}_bucket{{le=\"{le}\"}}"), acc.to_string()));
            }
            out.push((format!("{name}_sum"), h.sum.to_string()));
            out.push((format!("{name}_count"), h.total.to_string()));
        }
        out
    }

    /// Full Prometheus-style text exposition with `# HELP` / `# TYPE`
    /// comments, as printed by `pamactl metrics`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut described: Vec<String> = Vec::new();
        for (name, value) in self.prometheus_lines() {
            let family = family_of(&name).to_string();
            if !described.contains(&family) {
                described.push(family.clone());
                if let Some((help, kind)) = describe_family(&family) {
                    out.push_str(&format!("# HELP {family} {help}\n# TYPE {family} {kind}\n"));
                }
            }
            out.push_str(&format!("{name} {value}\n"));
        }
        out
    }
}

/// The metric family a `prometheus_lines` name belongs to: the name
/// with any `{label}` suffix and histogram `_bucket`/`_sum`/`_count`
/// suffix stripped (histogram series share one HELP/TYPE).
pub fn family_of(name: &str) -> &str {
    name.split('{')
        .next()
        .unwrap_or(name)
        .trim_end_matches("_bucket")
        .trim_end_matches("_sum")
        .trim_end_matches("_count")
}

/// `# HELP` text and `# TYPE` kind for a known metric family — shared
/// by [`MetricsSnapshot::render_prometheus`] and `pamactl metrics`
/// (which rebuilds the exposition from wire `STAT` pairs).
pub fn describe_family(family: &str) -> Option<(&'static str, &'static str)> {
    Some(match family {
        "pama_band_hits_total" => ("GET hits per penalty band", "counter"),
        "pama_band_misses_total" => ("GET misses per penalty band", "counter"),
        "pama_band_penalty_cost_us_total" => {
            ("penalty-weighted miss cost per band, microseconds", "counter")
        }
        "pama_band_evictions_total" => ("evictions per penalty band", "counter"),
        "pama_band_slab_moves_total" => {
            ("cross-class slab migrations by source band", "counter")
        }
        "pama_slab_grants_total" => ("slabs granted from the free pool", "counter"),
        "pama_arena_slabs" => ("slabs currently carved", "gauge"),
        "pama_arena_free_slots" => ("free slots across carved slabs", "gauge"),
        "pama_arena_resident_bytes" => ("arena-resident bytes", "gauge"),
        "pama_hit_latency_us" => ("sampled hit latency, microseconds", "histogram"),
        "pama_miss_latency_us" => ("sampled miss latency, microseconds", "histogram"),
        "pama_slab_move_us" => ("slab transfer duration, microseconds", "histogram"),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn five_bands() -> Vec<u64> {
        vec![1_000, 10_000, 100_000, 1_000_000, 5_000_000]
    }

    #[test]
    fn counters_and_gauges() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.set(42);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_edges_zero_top_and_beyond() {
        let h = AtomicHistogram::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(1u64 << (HIST_BUCKETS - 1)); // exactly the top bucket's lower bound
        h.record(u64::MAX); // far above the top: clamps, never overflows
        let s = h.snapshot();
        assert_eq!(s.counts[0], 2);
        assert_eq!(
            s.counts[HIST_BUCKETS - 1],
            2,
            "top edge and beyond clamp into the last bucket"
        );
        assert_eq!(s.total, 4);
    }

    #[test]
    fn histogram_mean_and_quantile() {
        let h = AtomicHistogram::new();
        for _ in 0..90 {
            h.record(16);
        }
        for _ in 0..10 {
            h.record(1 << 20);
        }
        let s = h.snapshot();
        assert!((s.mean() - (90.0 * 16.0 + 10.0 * (1 << 20) as f64) / 100.0).abs() < 1e-6);
        assert!(s.quantile(0.5).unwrap() < 64);
        assert!(s.quantile(0.99).unwrap() >= (1 << 20));
        assert_eq!(AtomicHistogram::new().snapshot().quantile(0.5), None);
    }

    #[test]
    fn concurrent_increment_oracle() {
        // N threads × M increments against one registry; every update
        // must land (the lock-free path loses nothing). Threads share
        // stripes (8 threads over 3 stripes) and bands, so both the
        // striped sum and same-cell contention are exercised.
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let reg = Arc::new(MetricsRegistry::new(five_bands(), 3));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    let band = t % 5;
                    for i in 0..PER_THREAD {
                        reg.band(t % 3, band).hits.inc();
                        reg.band(t % 3, band).penalty_cost_us.add(i);
                        reg.hit_latency_us.record(i % 1024);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.total_hits(), THREADS as u64 * PER_THREAD);
        // Each band was hit by the threads whose t % 5 matched it.
        let per_band: Vec<u64> = snap.bands.iter().map(|b| b.hits).collect();
        assert_eq!(per_band.iter().sum::<u64>(), THREADS as u64 * PER_THREAD);
        let cost_per_thread: u64 = (0..PER_THREAD).sum();
        assert_eq!(snap.total_penalty_cost_us(), THREADS as u64 * cost_per_thread);
        assert_eq!(snap.hit_latency.total, THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn band_index_clamps_instead_of_panicking() {
        let reg = MetricsRegistry::new(five_bands(), 2);
        reg.band(0, 99).hits.inc();
        reg.band(99, 0).hits.inc();
        let snap = reg.snapshot();
        assert_eq!((snap.bands[4].hits, snap.bands[0].hits), (1, 1));
        // Zero stripes means one.
        let one = MetricsRegistry::new(five_bands(), 0);
        one.band(3, 0).hits.inc();
        assert_eq!(one.snapshot().total_hits(), 1);
    }

    #[test]
    fn snapshot_sums_every_stripe() {
        let reg = MetricsRegistry::new(five_bands(), 4);
        for stripe in 0..4 {
            reg.band(stripe, 1).hits.add(stripe as u64 + 1);
            reg.band(stripe, 3).misses.inc();
            reg.band(stripe, 3).penalty_cost_us.add(10);
            reg.band(stripe, 4).evictions.inc();
            reg.band(stripe, 0).slab_moves.inc();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.bands[1].hits, 1 + 2 + 3 + 4);
        assert_eq!((snap.bands[3].misses, snap.bands[3].penalty_cost_us), (4, 40));
        assert_eq!((snap.bands[4].evictions, snap.bands[0].slab_moves), (4, 4));
        // Striping is invisible to the rendered form: the same totals in
        // one stripe render identically.
        let flat = MetricsRegistry::new(five_bands(), 1);
        flat.band(0, 1).hits.add(10);
        flat.band(0, 3).misses.add(4);
        flat.band(0, 3).penalty_cost_us.add(40);
        flat.band(0, 4).evictions.add(4);
        flat.band(0, 0).slab_moves.add(4);
        assert_eq!(flat.snapshot().prometheus_lines(), snap.prometheus_lines());
        let render =
            |s: &MetricsSnapshot| s.bands.iter().map(BandSnapshot::render).collect::<Vec<_>>();
        assert_eq!(render(&flat.snapshot()), render(&snap));
    }

    #[test]
    fn stripes_sit_on_separate_cache_lines() {
        let reg = MetricsRegistry::new(five_bands(), 2);
        let a = reg.band(0, 4) as *const BandCells as usize;
        let b = reg.band(1, 0) as *const BandCells as usize;
        assert_eq!(a % 64, 0);
        assert!(b - a >= 64, "adjacent stripes share a line");
    }

    #[test]
    fn snapshot_bounds_follow_the_paper_five_band_split() {
        let reg = MetricsRegistry::new(five_bands(), 1);
        let snap = reg.snapshot();
        assert_eq!(snap.bands.len(), 5);
        assert_eq!((snap.bands[0].lo_us, snap.bands[0].hi_us), (0, 1_000));
        assert_eq!((snap.bands[4].lo_us, snap.bands[4].hi_us), (1_000_000, 5_000_000));
    }

    #[test]
    fn band_line_round_trips() {
        let reg = MetricsRegistry::new(five_bands(), 1);
        reg.band(0, 1).hits.add(3);
        reg.band(0, 1).misses.add(2);
        reg.band(0, 1).penalty_cost_us.add(12_345);
        reg.band(0, 1).evictions.inc();
        reg.band(0, 1).slab_moves.inc();
        let snap = reg.snapshot();
        let line = snap.bands[1].render();
        assert_eq!(BandSnapshot::parse(&line), Some(snap.bands[1].clone()));
        assert_eq!(BandSnapshot::parse("bogus"), None);
        assert_eq!(BandSnapshot::parse("hits=notanumber"), None);
    }

    #[test]
    fn latency_sampling_fires_once_per_period() {
        let reg = MetricsRegistry::new(five_bands(), 1);
        // Uniform tags (hashes) fire exactly 1 in LATENCY_SAMPLE.
        let fired =
            (0..LATENCY_SAMPLE * 4).filter(|&tag| reg.sample_latency(tag)).count() as u64;
        assert_eq!(fired, 4);
        assert!(reg.sample_latency(0));
        assert!(!reg.sample_latency(LATENCY_SAMPLE - 1));
    }

    #[test]
    fn prometheus_rendering_has_labels_and_families() {
        let reg = MetricsRegistry::new(five_bands(), 1);
        reg.band(0, 0).hits.inc();
        reg.hit_latency_us.record(100);
        reg.arena_slabs.set(9);
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("pama_band_hits_total{band=\"0\"} 1"));
        assert!(text.contains("# TYPE pama_band_hits_total counter"));
        assert!(text.contains("pama_arena_slabs 9"));
        assert!(text.contains("pama_hit_latency_us_count 1"));
        assert!(text.contains("pama_hit_latency_us_bucket{le=\"127\"} 1"));
        // No name contains a space before its value (STAT-framable).
        for (name, _) in reg.snapshot().prometheus_lines() {
            assert!(!name.contains(' '), "unframable metric name {name:?}");
        }
    }
}
