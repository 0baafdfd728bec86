//! The eight contract lints.
//!
//! Each submodule is one pass over a [`crate::SourceFile`] token stream
//! (plus, for the cross-file contracts, the registry/README/worker
//! counterpart), returning plain [`crate::Diagnostic`]s. They share the
//! conventions set in the crate root: waivers are
//! `// jc-lint: allow(<lint>): <reason>` at the offending line, and a
//! reasonless waiver does not waive.

pub mod determinism;
pub mod doc_refs;
pub mod env_registry;
pub mod no_alloc;
pub mod pub_callers;
pub mod unsafe_audit;
pub mod wide_simd;
pub mod wire;
