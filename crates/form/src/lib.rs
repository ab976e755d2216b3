//! `form` — the Faceted Object-Relational Mapping (FORM).
//!
//! The central implementation idea of *Precise, Dynamic Information
//! Flow for Database-Backed Applications* (Yang et al., PLDI 2016,
//! §3): faceted values can be stored in an **unmodified** relational
//! database by adding two meta-data columns — `jid`, the logical
//! object id, and `jvars`, an encoding of which facet a physical row
//! belongs to (`"k1=True,k2=False"`). Standard SQL then *just works*:
//!
//! * `WHERE` filters physical rows, and because secret and public
//!   facets are separate rows, the matches come back correctly
//!   guarded;
//! * `JOIN`s run on `jid` and union the `jvars` of both sides
//!   (Table 2);
//! * `ORDER BY` sorts facet rows independently, so each view receives
//!   its own correctly sorted list;
//! * only aggregation must stay in the runtime ([`faceted_count`],
//!   [`faceted_sum`]), since SQL aggregates would mix facets.
//!
//! Writes under a path condition implement the guarded updates of
//! §2.2 (`⟨⟨pc ? new : old⟩⟩`), and the `*_with` reads (e.g.
//! [`FormDb::all_with`]) implement the Early Pruning optimization of
//! §3.2.
//!
//! Unmarshalling — the dominant FORM cost in the paper's Tables 3–4 —
//! is amortized by a per-table **decode cache** keyed on the storage
//! engine's write-generation stamps; see the [`FormDb`] type-level
//! docs for the invalidation contract.
//!
//! See the crate-level example on [`FormDb`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod db;
mod error;
mod meta;
mod object;
pub mod persist;
pub mod touched;

pub use aggregate::{faceted_count, faceted_sum};
pub use db::{binding_table, Binding, DecodeCacheStats, FormDb};
pub use error::{FormError, FormResult};
pub use meta::{encode_jvars, parse_jvars, JID, JVARS};
pub use object::{flatten_object, object_field, rebuild_object, FacetedObject, GuardedRow};
pub use persist::FormMeta;
