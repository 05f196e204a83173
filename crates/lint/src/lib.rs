//! The `mcim-lint` analysis library: lexer and rule engine.
//!
//! The binary in `main.rs` is a thin CLI over these modules; they are a
//! library target so the integration tests (and any future tooling) can
//! drive the analysis without spawning a process. Everything is
//! self-contained and offline-safe — no `syn`, no registry access.
//!
//! Every file is scrubbed and tokenized, then checked by the per-file
//! rules ([`rules`]) — lexical invariants (entropy, panic-freedom,
//! hygiene, sampler and RNG discipline, no hash order near wire code).
//! Any finding fails the run; the only escape is an inline reasoned
//! pragma. Wire bytes are not checked here: the golden table in
//! `crates/dist/tests/golden/` pins them.

pub mod lexer;
pub mod rules;
