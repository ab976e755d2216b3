//! Faceted values for precise, dynamic information flow control.
//!
//! This crate is the foundation of a Rust reproduction of
//! *Precise, Dynamic Information Flow for Database-Backed Applications*
//! (Yang, Hance, Austin, Solar-Lezama, Flanagan, Chong — PLDI 2016).
//! A *faceted value* `⟨k ? v_H : v_L⟩` behaves as the secret facet
//! `v_H` for observers authorized to see label `k` and as the public
//! facet `v_L` for everyone else; faceted *execution* propagates labels
//! through every derived value so that outputs can be resolved per
//! observer at a computation sink.
//!
//! The crate provides:
//!
//! * [`Label`] — policy labels, each its allocation index;
//! * [`Branch`] / [`Branches`] — `k` / `¬k` literals and branch sets,
//!   used as program counters and row guards;
//! * [`View`] — the set of labels an observer may see;
//! * [`Faceted`] — canonical faceted values with the `⟨⟨k ? · : ·⟩⟩`
//!   constructor, projection, and the strict-context combinators
//!   (`map`, `zip_with`, `and_then`);
//! * [`FacetedList`] — the guarded-row representation of faceted
//!   tables, with the shared-row `⟨⟨·⟩⟩` table join and Early Pruning.
//!
//! # Canonical form and hash-consing
//!
//! Every `Faceted<T>` is kept in canonical binary-decision form —
//! label ids strictly increase along every root-to-leaf path and no
//! node has two equal children — and, since the interner landed, every
//! canonical node is **hash-consed**: interned exactly once per
//! process in a sharded, `Arc`-backed node store (see [`intern`]).
//! The interning invariant upgrades the old structural-equality
//! guarantee to *pointer* equality: two faceted values denote the same
//! view function **iff** they are the same node, so `PartialEq` is an
//! id comparison and shared sub-structure (ubiquitous in aggregates
//! like faceted counts) is stored once. The canonicalizing operations
//! are memoized in per-store computed tables ([`intern::intern_stats`]
//! reports hit rates; [`intern::set_memoization`] toggles them for
//! measurement), and because the store is thread-safe, `Faceted<T>`
//! is `Send + Sync` for any `T: Send + Sync` — the property the
//! concurrent request executor in the `jacqueline` crate builds on.
//!
//! # Quick example
//!
//! ```
//! use faceted::{Faceted, Label, View};
//!
//! // A fresh label: its allocator's next index.
//! let k = Label::from_index(0);
//!
//! // ⟨k ? "Carol's surprise party" : "Private event"⟩
//! let name = Faceted::split(
//!     k,
//!     Faceted::leaf("Carol's surprise party".to_owned()),
//!     Faceted::leaf("Private event".to_owned()),
//! );
//!
//! // Derived values keep the label (faceted execution).
//! let banner = name.map(&mut |n| format!("Alice's events: {n}"));
//!
//! let guest = View::from_labels([k]);
//! assert_eq!(banner.project(&guest), "Alice's events: Carol's surprise party");
//! assert_eq!(banner.project(&View::empty()), "Alice's events: Private event");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod collection;
mod idhash;
pub mod intern;
mod label;
mod value;
mod view;

pub use branch::{Branch, Branches};
pub use collection::FacetedList;
pub use idhash::{IdBuildHasher, IdHashMap, IdHasher};
pub use intern::{collect_garbage, intern_stats, set_memoization, Facet, InternStats};
pub use label::Label;
pub use value::Faceted;
pub use view::View;
