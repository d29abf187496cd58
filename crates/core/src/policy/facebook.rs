//! Facebook's slab rebalancer (Nishtala et al., NSDI'13 \[11\]).
//!
//! Paper §II: "The optimized Memcached attempts to balance the age of
//! LRU items in different classes to approximate a single global LRU
//! replacement policy … if the scheme finds that the age of a class's
//! LRU item is 20% younger than the average age of the other classes'
//! LRU items, a slab is moved from the class with the oldest LRU item
//! to the class with the youngest LRU item."
//!
//! Here *age* is `now − last_access` of the class's LRU-tail item. The
//! check runs every `check_period` requests, and — as in the production
//! implementation — only classes under *eviction pressure* (at least
//! one eviction since the previous check) are candidates to receive a
//! slab; without that gate the 20%-younger rule fires on noise between
//! lightly-loaded classes. The paper excludes this
//! scheme from its evaluation because "it still does not consider item
//! size and miss penalty" — we implement it as an extension so the
//! extended comparison bench can verify that judgement.

use super::{meta_for, GetOutcome, Policy};
use crate::cache::BaseCache;
use crate::config::{CacheConfig, Tick};
use pama_trace::Request;
use pama_util::SimTime;

/// The LRU-age balancing extension baseline.
#[derive(Debug, Clone)]
pub struct FacebookAge {
    cache: BaseCache,
    /// Requests between balance checks.
    check_period: u64,
    requests_seen: u64,
    moves: u64,
    /// Per-class evictions since the last balance check.
    evictions: Vec<u64>,
}

impl FacebookAge {
    /// Default balance-check period.
    pub const DEFAULT_PERIOD: u64 = 10_000;

    /// Creates the policy with the default check period.
    pub fn new(cfg: CacheConfig) -> Self {
        Self::with_period(cfg, Self::DEFAULT_PERIOD)
    }

    /// Creates the policy with a custom check period.
    ///
    /// # Panics
    /// Panics if `check_period == 0`.
    pub fn with_period(cfg: CacheConfig, check_period: u64) -> Self {
        assert!(check_period > 0, "period must be positive");
        let nc = cfg.num_classes();
        Self {
            cache: BaseCache::new(cfg, 1),
            check_period,
            requests_seen: 0,
            moves: 0,
            evictions: vec![0; nc],
        }
    }

    /// Slab moves performed so far.
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Tail age of each class holding items, as (class, age µs).
    fn tail_ages(&self, now: SimTime) -> Vec<(usize, u64)> {
        (0..self.cache.num_classes())
            .filter_map(|c| {
                let tail = self.cache.class(c).queues[0].back()?;
                let last = self.cache.store().get(tail).last_access;
                Some((c, now.saturating_since(last).as_micros()))
            })
            .collect()
    }

    /// The 20%-younger rule, gated on eviction pressure.
    fn maybe_balance(&mut self, now: SimTime) {
        let ages = self.tail_ages(now);
        if ages.len() < 2 {
            self.evictions.fill(0);
            return;
        }
        // Receiving candidates: classes that evicted since last check.
        let young = ages
            .iter()
            .filter(|(c, _)| self.evictions[*c] > 0)
            .min_by_key(|(_, a)| *a)
            .copied();
        let old = ages.iter().max_by_key(|(_, a)| *a).copied();
        self.evictions.fill(0);
        let (Some((young_c, young_age)), Some((old_c, _))) = (young, old) else {
            return;
        };
        if young_c == old_c {
            return;
        }
        let others_sum: u64 = ages.iter().filter(|(c, _)| *c != young_c).map(|(_, a)| a).sum();
        let others_avg = others_sum as f64 / (ages.len() - 1) as f64;
        if (young_age as f64) < 0.8 * others_avg
            && self.cache.migrate_slab(old_c, 0, young_c, |_| {})
        {
            self.moves += 1;
        }
    }

    fn tick_request(&mut self, now: SimTime) {
        self.requests_seen += 1;
        if self.requests_seen.is_multiple_of(self.check_period) {
            self.maybe_balance(now);
        }
    }

    fn make_room(&mut self, class: usize) -> bool {
        if self.cache.evict_tail(class, 0).is_some() {
            self.evictions[class] += 1;
            true
        } else {
            false
        }
    }
}

impl Policy for FacebookAge {
    fn name(&self) -> String {
        format!("facebook-age(P={})", self.check_period)
    }

    fn on_get(&mut self, req: &Request, tick: Tick) -> GetOutcome {
        self.tick_request(tick.now);
        if self.cache.touch(req.key, tick.now).is_some() {
            return GetOutcome::HIT;
        }
        let mut filled = false;
        if self.cache.cfg().demand_fill {
            if let Some(meta) = meta_for(self.cache.cfg(), req, tick, false) {
                let c = meta.class as usize;
                match self.cache.insert(meta) {
                    crate::cache::InsertOutcome::NoSpace => {
                        if self.make_room(c) {
                            filled = !matches!(
                                self.cache.insert(meta),
                                crate::cache::InsertOutcome::NoSpace
                            );
                        }
                    }
                    _ => filled = true,
                }
            }
        }
        GetOutcome { hit: false, filled }
    }

    fn on_set(&mut self, req: &Request, tick: Tick) {
        self.tick_request(tick.now);
        if let Some(meta) = meta_for(self.cache.cfg(), req, tick, false) {
            if let Some(old) = self.cache.peek(meta.key) {
                if old.class == meta.class {
                    self.cache.update_in_place(meta);
                    return;
                }
                self.cache.remove(meta.key);
            }
            let c = meta.class as usize;
            if matches!(self.cache.insert(meta), crate::cache::InsertOutcome::NoSpace)
                && self.make_room(c)
            {
                let _ = self.cache.insert(meta);
            }
        }
    }

    fn on_delete(&mut self, req: &Request, tick: Tick) {
        self.tick_request(tick.now);
        self.cache.remove(req.key);
    }

    fn cache(&self) -> &BaseCache {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig {
            total_bytes: 8 << 10,
            slab_bytes: 4 << 10,
            min_slot: 64,
            ..CacheConfig::default()
        }
    }

    fn tick(us: u64) -> Tick {
        Tick { now: SimTime::from_micros(us), serial: us }
    }

    fn get(key: u64, vs: u32, us: u64) -> (Request, Tick) {
        (Request::get(SimTime::from_micros(us), key, 8, vs), tick(us))
    }

    #[test]
    fn moves_slab_to_young_tailed_class() {
        let mut p = FacebookAge::with_period(cfg(), 10);
        // One slab to class 5 (hot), one to class 6 (goes stale).
        let (r, t) = get(200, 2000, 0);
        p.on_get(&r, t);
        let (r, t) = get(100, 4000, 1);
        p.on_get(&r, t);
        // Hammer class 5 with three rotating keys over two slots: its
        // tail stays young and it keeps evicting (pressure gate), while
        // class 6's tail age grows without bound.
        for i in 0..200u64 {
            let (r, t) = get(200 + (i % 3), 2000, 10 + i * 1000);
            p.on_get(&r, t);
        }
        assert!(p.moves() > 0, "no balancing happened");
        assert_eq!(p.cache().class(6).slabs, 0, "stale class kept its slab");
        assert_eq!(p.cache().class(5).slabs, 2, "young class never received a slab");
        p.cache().check_invariants().unwrap();
    }

    #[test]
    fn no_balance_with_single_populated_class() {
        let mut p = FacebookAge::with_period(cfg(), 5);
        for i in 0..100u64 {
            let (r, t) = get(i % 3, 40, i * 100);
            p.on_get(&r, t);
        }
        assert_eq!(p.moves(), 0);
        p.cache().check_invariants().unwrap();
    }

    #[test]
    fn balanced_ages_do_not_move() {
        let mut p = FacebookAge::with_period(cfg(), 50);
        // Two classes, touched with identical timestamps: equal tail
        // ages, so the 20%-younger rule never fires.
        for i in 0..300u64 {
            let (r, t) = get(1, 2000, i * 10);
            p.on_get(&r, t);
            let (r, t) = get(2, 4000, i * 10);
            p.on_get(&r, t);
        }
        assert_eq!(p.moves(), 0, "symmetric load must not trigger moves");
    }
}
