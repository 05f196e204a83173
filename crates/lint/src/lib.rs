//! The `mcim-lint` analysis library: lexer, rule engine, workspace
//! symbol index and wire-schema lock.
//!
//! The binary in `main.rs` is a thin CLI over these modules; they are a
//! library target so the integration tests (and any future tooling) can
//! drive the analysis without spawning a process. Everything is
//! self-contained and offline-safe — no `syn`, no registry access.
//!
//! Analysis happens in two passes over the same scrubbed token streams:
//!
//! 1. **Per-file rules** ([`rules`]) — lexical invariants (entropy,
//!    panic-freedom, hygiene, sampler and RNG discipline). Any finding
//!    fails the run; the only escape is an inline reasoned pragma.
//! 2. **Workspace schema** ([`symbols`] + [`schema`]) — a cross-file
//!    symbol index resolving every `Wire`/`WireState`/`StageDecode`
//!    implementation to its type definition, fingerprinted against the
//!    committed `wire-schema.lock` so no wire-visible layout can change
//!    silently.

pub mod lexer;
pub mod rules;
pub mod schema;
pub mod symbols;
