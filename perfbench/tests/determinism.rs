//! The benchmark's own checks: `app-evict` is deterministic for one
//! seed, and a second seed lands within the bounds `BENCHMARK.json`
//! sets. Run with `cargo test --release` from this directory.

use pama_util::json::Json;
use perfbench::app_evict::{counts, Inputs, MEMORY_MB};

/// Timed-phase operations per check: enough to evict and move slabs.
const OPS: u64 = 300_000;

/// The `bound` of an end-to-end metric in `BENCHMARK.json`.
fn bound(metric: &str) -> f64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(metrics)) = doc.get("end_to_end") else { panic!("no end_to_end list") };
    metrics
        .iter()
        .find(|m| matches!(m.get("name"), Some(Json::Str(n)) if n == metric))
        .and_then(|m| match m.get("bound") {
            Some(Json::F64(b)) => Some(*b),
            _ => None,
        })
        .unwrap_or_else(|| panic!("{metric} has no bound"))
}

#[test]
fn app_evict_is_deterministic_and_seed_robust() {
    let a = Inputs::generate(11);
    let first = counts(&a, OPS);
    assert!(first.errors.is_empty(), "output checks failed: {:?}", first.errors);
    assert_eq!(first, counts(&a, OPS), "same inputs, different counts");

    let hit_ratio = first.hits as f64 / (first.hits + first.misses) as f64;
    assert!(first.evictions > 0, "the timed phase must evict");
    assert!(first.slab_transfers > 0, "the timed phase must move slabs");
    assert!(hit_ratio < 0.95, "hit ratio {hit_ratio} leaves the allocator idle");
    assert_eq!(first.failed, 0, "no operation may fail");
    println!(
        "footprint {:.1} MiB over a {MEMORY_MB} MiB cache, {} keys",
        a.footprint_bytes() as f64 / (1 << 20) as f64,
        a.key_count()
    );

    let second = counts(&Inputs::generate(12), OPS);
    assert!(second.errors.is_empty(), "output checks failed: {:?}", second.errors);
    let other_ratio = second.hits as f64 / (second.hits + second.misses) as f64;
    for (name, x, y) in [
        ("hit_ratio", hit_ratio, other_ratio),
        ("avg_service_ms", first.avg_service_ms, second.avg_service_ms),
    ] {
        let drift = (x - y).abs() / x;
        assert!(drift <= bound(name), "{name}: seeds 11 and 12 differ by {drift:.3}");
    }
}
