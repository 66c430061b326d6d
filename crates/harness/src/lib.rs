//! Zero-dependency test/bench infrastructure for the XMT toolchain.
//!
//! The workspace builds fully offline (see "Hermetic build &
//! verification" in the README); this crate supplies the pieces that
//! previously came from registry crates:
//!
//! - [`json`] — compact JSON encode/decode with `ToJson`/`FromJson`
//!   traits and `json_struct!`/`json_enum!`/`json_newtype!` derive
//!   macros (replaces `serde`/`serde_json`).
//! - [`prng`] — seeded SplitMix64 + xoshiro256** generator (replaces
//!   `rand`).
//! - [`prop`] — deterministic property-test harness with
//!   shrink-by-halving and failure-seed replay (replaces `proptest`).
//! - [`bench`] — warmup/median/MAD bench runner emitting
//!   `BENCH_*.json` (replaces `criterion`).
//! - [`hash`] — a multiplicative hasher for maps keyed by small integers
//!   the program computed itself (replaces `rustc-hash`).

pub mod bench;
pub mod hash;
pub mod json;
pub mod prng;
pub mod prop;

pub use bench::{black_box, BenchGroup, BenchResult};
pub use hash::IntMap;
pub use json::{FromJson, Json, JsonError, ToJson};
pub use prng::{splitmix64, Rng};
pub use prop::{Config as PropConfig, Gen};
