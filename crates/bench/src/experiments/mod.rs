//! One module per reproduced figure, plus extensions.
//!
//! | experiment | paper figure | module |
//! |---|---|---|
//! | `fig1` | miss penalty vs item size | [`fig1`] |
//! | `fig3` | per-class slab allocation over time | [`alloc`] |
//! | `fig4` | per-subclass allocation (PAMA) | [`alloc`] |
//! | `fig5` / `fig6` | ETC hit ratio / service time | [`etc`] |
//! | `fig7` / `fig8` | APP hit ratio / service time (trace ×2) | [`app`] |
//! | `fig9` | cold-burst impact | [`burst`] |
//! | `fig10` | sensitivity to `m` | [`sensitivity`] |
//! | `extended` | §II schemes + references (extension) | [`extended`] |
//! | `ablation` | Bloom vs exact membership, PSA `M`, value window | [`ablation`] |
//! | `chaos` | fault injection & graceful degradation (extension) | [`chaos`] |
//! | `presets` | USR/SYS/VAR: the paper's workload-selection rationale | [`presets`] |
//! | `perf` | kv GET/SET throughput + hit latency (extension) | [`perf`] |
//! | `memory` | kv per-item overhead & fragmentation (extension) | [`memory`] |
//! | `net` | loopback pamad throughput & pipelining (extension) | [`net`] |
//! | `obs` | metrics-registry consistency & wire exposition (extension) | [`obs`] |
//! | `smoke` | 30-second end-to-end sanity run | [`smoke`] |

pub mod ablation;
pub mod alloc;
pub mod app;
pub mod burst;
pub mod chaos;
pub mod etc;
pub mod extended;
pub mod fig1;
pub mod memory;
pub mod net;
pub mod obs;
pub mod perf;
pub mod presets;
pub mod sensitivity;
pub mod smoke;

use crate::output::ShapeCheck;

/// Common options threaded from the CLI into every experiment.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Output directory.
    pub out: Option<String>,
    /// Worker threads (0 = auto).
    pub threads: usize,
    /// Request-count multiplier (1.0 = scaled default; the paper's
    /// full scale is ~100×).
    pub scale: f64,
    /// Override trace seed.
    pub seed: Option<u64>,
    /// Reduced op counts for CI (currently honored by `perf`).
    pub smoke: bool,
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self { out: None, threads: 0, scale: 1.0, seed: None, smoke: false }
    }
}

impl ExpOptions {
    /// Applies the scale multiplier to a request count.
    pub fn scaled(&self, requests: usize) -> usize {
        ((requests as f64) * self.scale).max(10_000.0) as usize
    }
}

/// Every experiment returns its shape checks; the CLI exits non-zero
/// when any check failed.
pub type ExpResult = Vec<ShapeCheck>;
