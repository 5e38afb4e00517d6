//! Offline stand-in for `serde`.
//!
//! Provides the two trait names and re-exports the no-op derive macros from
//! the sibling `serde_derive` shim. The workspace uses serde only through
//! `#[derive(Serialize, Deserialize)]` attributes and `use serde::{...}`
//! imports — never as trait bounds — so empty traits and empty derives are a
//! faithful substitute until the real crates can be vendored.

#![forbid(unsafe_code)]

use std::sync::Arc;

pub use serde_derive::{Deserialize, Serialize};

/// Stand-in for `serde::Serialize` (the trait namespace half of the name).
pub trait Serialize {}

/// Stand-in for `serde::Deserialize` (the trait namespace half of the name).
pub trait Deserialize<'de>: Sized {}

// Shared-slice fields (`Arc<[u8]>`, `Arc<[String]>`) appear in types that
// derive the serde traits, so the shim carries the impls the real crate
// would provide via its `rc` feature. Kept explicit (not a blanket impl) to
// match real serde's opt-in surface.
impl Serialize for Arc<[u8]> {}

impl<'de> Deserialize<'de> for Arc<[u8]> {}

impl Serialize for Arc<[String]> {}

impl<'de> Deserialize<'de> for Arc<[String]> {}
