//! Measurement plumbing shared by every workload: latency reservoirs,
//! metric records, the end-to-end metric set, process-memory probes and
//! the result line.

use pama_kv::{CacheReport, MetricsSnapshot};
use std::time::{Duration, Instant};

/// Service time the paper charges for a GET hit (§IV), milliseconds.
pub const HIT_TIME_MS: f64 = 0.1;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// A phase's throughput and latency percentiles are taken per window of
/// this many seconds. Throughput and the median latency are reported at
/// the slowest decile of windows (see [`SLOW_DECILE`]); a tail latency
/// as the median over windows, which a burst of stalls covering less
/// than half the phase does not move.
pub const WINDOW_S: f64 = 0.5;

/// Share of windows that may be slower than the reported throughput and
/// median latency: `ops_s` is the 10th percentile of the window rates,
/// `get_p50_us` the 90th percentile of the window medians. On a shared
/// virtual machine a CPU runs at one of two speeds, about 1.6x apart,
/// and switches between them every few seconds as the host's load
/// changes; the share of a run spent fast is luck, while the slow speed
/// recurs in nearly every run. See `README.md` for the measurements.
pub const SLOW_DECILE: f64 = 0.1;

/// Largest latency sample a whole-phase reservoir keeps.
const RESERVOIR_CAP: usize = 1 << 20;

/// Largest latency sample a window's reservoir keeps.
const WINDOW_CAP: usize = 1 << 16;

/// The paper's five penalty-band upper edges, microseconds.
pub const BAND_EDGES_US: [u64; 5] = [1_000, 10_000, 100_000, 1_000_000, 5_000_000];

/// Band index of a penalty under [`BAND_EDGES_US`].
pub fn band_of(penalty_us: u64) -> usize {
    BAND_EDGES_US.iter().position(|&hi| penalty_us <= hi).unwrap_or(BAND_EDGES_US.len() - 1)
}

/// How long a measured phase runs: wall-clock for the benchmark,
/// an exact operation count for the determinism tests.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Run until this much time has passed.
    Time(Duration),
    /// Run exactly this many operations.
    Ops(u64),
}

impl Budget {
    /// Whether a phase that started at `start` and has done `ops`
    /// operations is finished. `now` is a clock read the caller already
    /// made, so checking costs no extra clock read.
    #[inline]
    pub fn done(&self, start: Instant, now: Instant, ops: u64) -> bool {
        match *self {
            Budget::Time(d) => now.duration_since(start) >= d,
            Budget::Ops(n) => ops >= n,
        }
    }
}

/// A uniform fixed-size sample of a latency stream (Vitter's
/// Algorithm R), in nanoseconds. Percentiles come from exact kept
/// samples, so two runs never report the same bucketed value.
#[derive(Debug, Clone)]
pub struct Reservoir {
    kept: Vec<u64>,
    seen: u64,
    cap: usize,
    rng: u64,
}

impl Default for Reservoir {
    fn default() -> Self {
        Self::new()
    }
}

impl Reservoir {
    /// An empty reservoir for a whole phase.
    pub fn new() -> Self {
        Self::with_cap(RESERVOIR_CAP)
    }

    fn with_cap(cap: usize) -> Self {
        Self { kept: Vec::new(), seen: 0, cap, rng: 0x2545_f491_4f6c_dd1d }
    }

    /// Offers one sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.seen += 1;
        if self.kept.len() < self.cap {
            self.kept.push(ns);
            return;
        }
        // xorshift64: cheap, and only the slot choice depends on it.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let j = self.rng % self.seen;
        if (j as usize) < self.cap {
            self.kept[j as usize] = ns;
        }
    }

    /// Records the time elapsed between two clock reads.
    #[inline]
    pub fn span(&mut self, t0: Instant, t1: Instant) {
        self.record(t1.duration_since(t0).as_nanos() as u64);
    }

    /// Samples offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Folds another thread's reservoir into this one.
    pub fn absorb(&mut self, other: Reservoir) {
        self.seen += other.seen;
        self.kept.extend(other.kept);
    }

    /// Sorted copy of the kept samples, for percentiles.
    pub fn sorted(&self) -> Sorted {
        let mut v = self.kept.clone();
        v.sort_unstable();
        Sorted { v, seen: self.seen }
    }

    /// Sorts the kept samples out, leaving the reservoir empty.
    fn drain_sorted(&mut self) -> Sorted {
        let mut v = std::mem::take(&mut self.kept);
        v.sort_unstable();
        let seen = std::mem::take(&mut self.seen);
        Sorted { v, seen }
    }
}

/// Sorted latency samples.
#[derive(Debug, Clone)]
pub struct Sorted {
    v: Vec<u64>,
    seen: u64,
}

impl Sorted {
    /// Samples offered to the reservoir (not only those kept).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Mean, microseconds (0 without samples).
    pub fn mean_us(&self) -> f64 {
        if self.v.is_empty() {
            return 0.0;
        }
        self.v.iter().sum::<u64>() as f64 / self.v.len() as f64 / 1e3
    }

    /// Nearest-rank `q`-quantile, microseconds — `None` unless at least
    /// ten kept samples lie beyond it.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        let n = self.v.len();
        let rank = ((q * n as f64).ceil() as usize).max(1);
        (n >= rank + 10).then(|| self.v[rank - 1] as f64 / 1e3)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many observations the value rests on.
    pub samples: u64,
    /// `false` when the metric's layer is not on this workload's path
    /// (the value is then 0 and the table says so).
    pub applies: bool,
}

impl Metric {
    /// A measured metric.
    pub fn new(name: &str, unit: &'static str, value: f64, samples: u64) -> Self {
        Self { name: name.to_string(), unit, value, samples, applies: true }
    }

    /// A percentile metric: reported only when ten samples lie beyond
    /// it; otherwise marked not applicable with its sample count.
    pub fn quantile(name: &str, sorted: &Sorted, q: f64) -> Self {
        match sorted.quantile_us(q) {
            Some(v) => Self::new(name, "us", v, sorted.seen()),
            None => Self { applies: false, ..Self::new(name, "us", 0.0, sorted.seen()) },
        }
    }
}

/// Latency percentiles of one window, microseconds.
#[derive(Debug, Clone, Copy)]
struct WindowLatency {
    get_p50: Option<f64>,
    get_p99: Option<f64>,
    set_p99: Option<f64>,
}

/// What one closed-loop phase measured, as the caller saw it.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Operations completed.
    pub ops: u64,
    /// Operations the cache refused.
    pub failed: u64,
    /// Wall time of the phase, seconds.
    pub elapsed_s: f64,
    /// GETs issued.
    pub gets: u64,
    /// GETs that hit.
    pub hits: u64,
    /// SETs issued.
    pub sets: u64,
    /// Sum of the miss penalties of GETs that missed, microseconds.
    pub miss_penalty_us: u64,
    start: Option<Instant>,
    open_at: f64,
    open_ops: u64,
    get_lat: Option<Reservoir>,
    set_lat: Option<Reservoir>,
    rates: Vec<f64>,
    latency: Vec<WindowLatency>,
}

impl Phase {
    /// Starts the clock of a timed phase.
    pub fn begin(&mut self, start: Instant) {
        self.start = Some(start);
    }

    /// A GET's caller-side latency.
    #[inline]
    pub fn get_latency(&mut self, t0: Instant, t1: Instant) {
        self.get_lat.get_or_insert_with(|| Reservoir::with_cap(WINDOW_CAP)).span(t0, t1);
    }

    /// A SET's caller-side latency.
    #[inline]
    pub fn set_latency(&mut self, t0: Instant, t1: Instant) {
        self.sets += 1;
        self.set_lat.get_or_insert_with(|| Reservoir::with_cap(WINDOW_CAP)).span(t0, t1);
    }

    /// Notes the time; closes the current window once it is
    /// [`WINDOW_S`] long.
    #[inline]
    pub fn tick(&mut self, now: Instant) {
        if let Some(start) = self.start {
            let t = now.duration_since(start).as_secs_f64();
            if t - self.open_at >= WINDOW_S {
                self.close_window(t);
            }
        }
    }

    #[cold]
    fn close_window(&mut self, t: f64) {
        self.rates.push((self.ops - self.open_ops) as f64 / (t - self.open_at));
        let take = |r: &mut Option<Reservoir>| r.as_mut().map(Reservoir::drain_sorted);
        let (gets, sets) = (take(&mut self.get_lat), take(&mut self.set_lat));
        self.latency.push(WindowLatency {
            get_p50: gets.as_ref().and_then(|g| g.quantile_us(0.50)),
            get_p99: gets.as_ref().and_then(|g| g.quantile_us(0.99)),
            set_p99: sets.as_ref().and_then(|s| s.quantile_us(0.99)),
        });
        self.open_at = t;
        self.open_ops = self.ops;
    }

    /// Stops the clock at `now`. A phase shorter than three windows
    /// counts its partial last window too.
    pub fn end(&mut self, now: Instant) {
        if let Some(start) = self.start {
            let t = now.duration_since(start).as_secs_f64();
            self.elapsed_s = t;
            if self.rates.len() < 3 && t > self.open_at {
                self.close_window(t);
            }
        }
    }

    /// Completed operations per second that the phase sustained: the
    /// window rate that [`SLOW_DECILE`] of the windows fall below.
    pub fn ops_s(&self) -> f64 {
        if self.rates.is_empty() {
            return 0.0;
        }
        quantile(&self.rates, SLOW_DECILE)
    }

    /// One window percentile over the windows that had enough samples
    /// for it, at quantile `q` of those windows (0 when none had).
    fn over_windows(&self, pick: fn(&WindowLatency) -> Option<f64>, q: f64) -> f64 {
        let v: Vec<f64> = self.latency.iter().filter_map(pick).collect();
        if v.is_empty() {
            0.0
        } else {
            quantile(&v, q)
        }
    }

    /// The paper's average GET service time, milliseconds.
    pub fn avg_service_ms(&self) -> f64 {
        (self.hits as f64 * HIT_TIME_MS + self.miss_penalty_us as f64 / 1e3)
            / self.gets.max(1) as f64
    }

    /// Folds another thread's phase into this one: counts add up,
    /// window rates add up window by window, and each thread's windows
    /// count as windows of their own for the latency figures.
    pub fn absorb(&mut self, other: Phase) {
        if self.rates.is_empty() {
            self.rates = other.rates;
        } else {
            self.rates.truncate(other.rates.len());
            for (a, b) in self.rates.iter_mut().zip(&other.rates) {
                *a += b;
            }
        }
        self.latency.extend(other.latency);
        self.ops += other.ops;
        self.failed += other.failed;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.gets += other.gets;
        self.hits += other.hits;
        self.sets += other.sets;
        self.miss_penalty_us += other.miss_penalty_us;
    }
}

/// Memory the cache costs, measured by the workload.
#[derive(Debug, Clone, Copy)]
pub struct Memory {
    /// Resident MiB of the cache (see `README.md` for each workload).
    pub rss_mb: f64,
    /// Resident bytes the cache added ÷ live key and value bytes.
    pub space_amp: f64,
    /// Live key and value bytes behind `space_amp`.
    pub live_bytes: u64,
}

impl Memory {
    /// Memory of an in-process cache: the resident bytes its set-up
    /// added, over the live bytes it then held.
    pub fn added(rss_bytes: u64, live_bytes: u64) -> Memory {
        Memory {
            rss_mb: rss_bytes as f64 / (1 << 20) as f64,
            space_amp: rss_bytes as f64 / live_bytes.max(1) as f64,
            live_bytes,
        }
    }
}

/// Timers and counts around the calls into an in-process `PamaCache`,
/// kept while tracing.
#[derive(Debug, Default)]
pub struct KvTrace {
    get: Reservoir,
    set: Reservoir,
    miss: Reservoir,
    call_ns: u64,
    calls: u64,
    band_cost_us: [u64; 5],
    misses: u64,
}

impl KvTrace {
    /// Any call into the cache.
    #[inline]
    pub fn call(&mut self, t0: Instant, t1: Instant) {
        self.call_ns += t1.duration_since(t0).as_nanos() as u64;
        self.calls += 1;
    }

    /// A `get` call.
    #[inline]
    pub fn get(&mut self, t0: Instant, t1: Instant) {
        self.get.span(t0, t1);
        self.call(t0, t1);
    }

    /// A `get` call that missed a key whose penalty is `penalty_us`
    /// (recorded in addition to [`Self::get`]).
    #[inline]
    pub fn miss(&mut self, t0: Instant, t1: Instant, penalty_us: u64) {
        self.miss.span(t0, t1);
        self.band_cost_us[band_of(penalty_us)] += penalty_us;
        self.misses += 1;
    }

    /// A `set` call.
    #[inline]
    pub fn set(&mut self, t0: Instant, t1: Instant) {
        self.set.span(t0, t1);
        self.call(t0, t1);
    }

    /// Folds another thread's trace into this one.
    pub fn absorb(&mut self, o: KvTrace) {
        self.get.absorb(o.get);
        self.set.absorb(o.set);
        self.miss.absorb(o.miss);
        self.call_ns += o.call_ns;
        self.calls += o.calls;
        self.misses += o.misses;
        for (a, b) in self.band_cost_us.iter_mut().zip(o.band_cost_us) {
            *a += b;
        }
    }

    /// Mean time of a call into the cache, microseconds.
    pub fn mean_call_us(&self) -> f64 {
        self.call_ns as f64 / self.calls.max(1) as f64 / 1e3
    }

    /// The kv- and slab-layer metrics of a traced phase, from these
    /// timers and the cache's reports before and after it. Misses are
    /// attributed to bands by the workload's own penalties: explicit
    /// penalties do not feed the kv layer's per-key estimates, so its
    /// registry files every in-process miss under the default penalty.
    pub fn report(
        &self,
        l: &mut Layers,
        before: &CacheReport,
        after: &CacheReport,
        phase: &Phase,
    ) {
        let (c0, c1) = (&before.cache, &after.cache);
        let gets = self.get.sorted();
        let sets = self.set.sorted();
        l.put("kv.get_us.mean", gets.mean_us(), gets.seen());
        l.put_quantile("kv.get_us.p99", &gets, 0.99);
        l.put("kv.set_us.mean", sets.mean_us(), sets.seen());
        l.put_quantile("kv.set_us.p99", &sets, 0.99);
        l.put("kv.miss_us.mean", self.miss.sorted().mean_us(), self.miss.seen());
        let applied = c1.deferred_hits - c0.deferred_hits;
        let dropped = c1.deferred_dropped - c0.deferred_dropped;
        let deferred = applied + dropped;
        l.put("kv.deferred_drop_ratio", dropped as f64 / deferred.max(1) as f64, deferred);
        l.count("kv.evictions", c1.evictions - c0.evictions);
        l.count("kv.rejected", c1.rejected - c0.rejected);
        let attempted = phase.ops + phase.failed;
        l.put("kv.fail_ratio", phase.failed as f64 / attempted.max(1) as f64, attempted);
        let transfers = c1.slab_transfers - c0.slab_transfers;
        l.count("slab.transfers", transfers);
        let moves = c1.slot_moves - c0.slot_moves;
        l.put(
            "slab.slot_moves_per_transfer",
            moves as f64 / transfers.max(1) as f64,
            transfers,
        );
        if let Some(s) = &after.slabs {
            let frag = s.internal_frag_bytes() as f64 / s.slot_bytes.max(1) as f64;
            l.put("slab.internal_frag", frag, s.live_items);
            let slots = s.free_slots + s.live_items;
            l.put("slab.free_slot_ratio", s.free_slots as f64 / slots.max(1) as f64, slots);
        }
        l.band_shares(&self.band_cost_us, self.misses);
    }
}

/// Core- and slab-layer metrics from the cache's metrics registry,
/// snapshotted before and after a traced phase.
pub fn registry_layers(l: &mut Layers, before: &MetricsSnapshot, after: &MetricsSnapshot) {
    let moves: u64 =
        after.bands.iter().zip(&before.bands).map(|(b, a)| b.slab_moves - a.slab_moves).sum();
    l.count("core.slab_moves", moves);
    let mut moved = after.slab_move.clone();
    for (d, a) in moved.counts.iter_mut().zip(before.slab_move.counts) {
        *d -= a;
    }
    moved.total -= before.slab_move.total;
    // Power-of-two buckets: the ten-beyond rule is applied to the
    // histogram's own count.
    if moved.total >= 1_010 {
        l.put("slab.move_us.p99", moved.quantile(0.99).unwrap_or(0) as f64, moved.total);
    }
}

/// Nearest-rank `q`-quantile of a non-empty list.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of a non-empty list.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The end-to-end metric set every workload reports.
pub fn end_to_end(phase: &Phase, setups_s: &[f64], mem: Memory) -> Vec<Metric> {
    let attempted = phase.ops + phase.failed;
    let (gets, sets) = (phase.gets, phase.sets);
    vec![
        Metric::new("setup_s", "s", median(setups_s), setups_s.len() as u64),
        Metric::new("ops_s", "1/s", phase.ops_s(), phase.ops),
        Metric::new(
            "get_p50_us",
            "us",
            phase.over_windows(|w| w.get_p50, 1.0 - SLOW_DECILE),
            gets,
        ),
        Metric::new("get_p99_us", "us", phase.over_windows(|w| w.get_p99, 0.5), gets),
        Metric::new("set_p99_us", "us", phase.over_windows(|w| w.set_p99, 0.5), sets),
        Metric::new(
            "hit_ratio",
            "ratio",
            phase.hits as f64 / phase.gets.max(1) as f64,
            phase.gets,
        ),
        Metric::new("avg_service_ms", "ms", phase.avg_service_ms(), phase.gets),
        Metric::new("rss_mb", "MiB", mem.rss_mb, 1),
        Metric::new("space_amp", "ratio", mem.space_amp, mem.live_bytes),
        Metric::new(
            "ok_ratio",
            "ratio",
            1.0 - phase.failed as f64 / attempted.max(1) as f64,
            attempted,
        ),
    ]
}

/// Every per-layer metric name with its unit, in report order. A
/// workload fills in the ones on its path; the rest are reported as
/// not applicable.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.burst_us.p50", "us"),
    ("server.burst_us.p99", "us"),
    ("server.bytes_per_op", "B"),
    ("server.self_us_per_op", "us"),
    ("server.commands_per_op", "ratio"),
    ("server.protocol_errors", "count"),
    ("kv.get_us.mean", "us"),
    ("kv.get_us.p99", "us"),
    ("kv.deferred_drop_ratio", "ratio"),
    ("kv.set_us.mean", "us"),
    ("kv.set_us.p99", "us"),
    ("kv.miss_us.mean", "us"),
    ("kv.evictions", "count"),
    ("kv.rejected", "count"),
    ("kv.fail_ratio", "ratio"),
    ("core.step_us.mean", "us"),
    ("core.share", "ratio"),
    ("core.slab_moves", "count"),
    ("slab.transfers", "count"),
    ("slab.slot_moves_per_transfer", "ratio"),
    ("slab.move_us.p99", "us"),
    ("slab.internal_frag", "ratio"),
    ("slab.free_slot_ratio", "ratio"),
    ("band.b0.miss_cost_share", "ratio"),
    ("band.b1.miss_cost_share", "ratio"),
    ("band.b2.miss_cost_share", "ratio"),
    ("band.b3.miss_cost_share", "ratio"),
    ("band.b4.miss_cost_share", "ratio"),
    ("faults.fetch_ms.mean", "ms"),
    ("trace.overhead", "ratio"),
];

/// Collects a traced run's per-layer metrics by name.
#[derive(Debug, Default)]
pub struct Layers {
    found: Vec<Metric>,
}

impl Layers {
    /// Records a metric; its unit comes from [`PER_LAYER`].
    ///
    /// # Panics
    /// Panics on a name missing from [`PER_LAYER`] — a bug in this
    /// benchmark, not in the program it measures.
    pub fn put(&mut self, name: &str, value: f64, samples: u64) {
        let unit = unit_of(name);
        self.found.push(Metric::new(name, unit, value, samples));
    }

    /// Records a percentile, honouring the ten-beyond rule.
    pub fn put_quantile(&mut self, name: &str, sorted: &Sorted, q: f64) {
        self.found.push(Metric::quantile(name, sorted, q));
    }

    /// Records a cumulative count.
    pub fn count(&mut self, name: &str, n: u64) {
        self.put(name, n as f64, n);
    }

    /// Per-band miss-cost shares from per-band penalty sums.
    pub fn band_shares(&mut self, cost_us: &[u64; 5], misses: u64) {
        let total: u64 = cost_us.iter().sum();
        for (i, c) in cost_us.iter().enumerate() {
            let share = if total == 0 { 0.0 } else { *c as f64 / total as f64 };
            self.put(&format!("band.b{i}.miss_cost_share"), share, misses);
        }
    }

    /// The full per-layer list in [`PER_LAYER`] order.
    pub fn finish(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| match self.found.iter().find(|m| m.name == name) {
                Some(m) => m.clone(),
                None => Metric { applies: false, ..Metric::new(name, unit, 0.0, 0) },
            })
            .collect()
    }
}

fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("per-layer metric {name} is not declared"))
}

/// `1 − traced ops_s ÷ untraced ops_s`.
pub fn trace_overhead(layers: &mut Layers, traced: &Phase, untraced: &Phase) {
    layers.put("trace.overhead", 1.0 - traced.ops_s() / untraced.ops_s().max(1e-9), traced.ops);
}

/// A finished run: the correctness verdict, operation counts and the
/// metrics of the requested mode.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations issued in the reported phase.
    pub attempted: u64,
    /// Operations refused or failed in the reported phase.
    pub failed: u64,
    /// Output-check violations; empty means correct.
    pub errors: Vec<String>,
    /// Context printed with the table but not reported as a metric.
    pub notes: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// A traced run's end-to-end metrics from its untraced comparison
    /// phase: printed in the table, not in the result line.
    pub untraced: Vec<Metric>,
}

impl Outcome {
    /// Records a failed output check (the first few are kept verbatim).
    pub fn violation(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Prints the human-readable table, then the one-line JSON result
    /// as the last line of standard output.
    pub fn print(&self, workload: &str, trace: bool) {
        let rows = |title: &str, metrics: &[Metric]| {
            println!("workload {workload}: {title}");
            for m in metrics {
                if m.applies {
                    println!(
                        "  {:<30} {:>16.6} {:<6} n={}",
                        m.name, m.value, m.unit, m.samples
                    );
                } else {
                    println!("  {:<30} {:>16} {:<6} n={}", m.name, "n/a", m.unit, m.samples);
                }
            }
        };
        if !self.untraced.is_empty() {
            rows("end-to-end, untraced comparison phase", &self.untraced);
        }
        rows(if trace { "per-layer, traced phase" } else { "end-to-end" }, &self.metrics);
        for n in &self.notes {
            println!("  note: {n}");
        }
        for e in &self.errors {
            println!("  CHECK FAILED: {e}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite JSON number with all its digits.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// A `kB` field (`VmRSS`, `VmHWM`, …) of `/proc/<pid>/status`; `self`
/// reads this process.
pub fn proc_status_kb(pid: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// This process's resident set, bytes.
pub fn self_rss_bytes() -> u64 {
    proc_status_kb("self", "VmRSS").unwrap_or(0) * 1024
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_needs_ten_samples_beyond() {
        let mut r = Reservoir::new();
        for i in 1..=100u64 {
            r.record(i * 1000);
        }
        let s = r.sorted();
        assert_eq!(s.quantile_us(0.5), Some(50.0));
        assert_eq!(s.quantile_us(0.99), None, "only one sample beyond p99 of 100");
        assert!((s.mean_us() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn reservoir_keeps_a_bounded_sample() {
        let mut r = Reservoir::new();
        for i in 0..(RESERVOIR_CAP as u64 + 1000) {
            r.record(i);
        }
        assert_eq!(r.seen(), RESERVOIR_CAP as u64 + 1000);
        assert_eq!(r.sorted().v.len(), RESERVOIR_CAP);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.1), 4.0);
        assert_eq!(quantile(&xs, 0.5), 20.0);
        assert_eq!(quantile(&xs, 0.9), 36.0);
        assert_eq!(quantile(&[7.0], 0.1), 7.0);
    }

    #[test]
    fn bands_follow_the_paper_split() {
        assert_eq!(band_of(500), 0);
        assert_eq!(band_of(1_000), 0);
        assert_eq!(band_of(1_001), 1);
        assert_eq!(band_of(2_000_000), 4);
        assert_eq!(band_of(u64::MAX), 4);
    }

    #[test]
    fn layers_fill_every_declared_name() {
        let mut l = Layers::default();
        l.put("kv.evictions", 3.0, 3);
        let all = l.finish();
        assert_eq!(all.len(), PER_LAYER.len());
        assert!(all.iter().any(|m| m.name == "kv.evictions" && m.applies));
        assert!(all.iter().filter(|m| !m.applies).all(|m| m.value == 0.0));
    }
}
