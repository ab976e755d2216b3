//! `jacqueline` — a policy-agnostic web framework with dynamic
//! information flow across the application and the database.
//!
//! This crate is the Rust analogue of the paper's Jacqueline
//! framework (Yang et al., PLDI 2016, §2, §5, §6): models declare
//! their information-flow policies **once**, next to the schema, and
//! the runtime + faceted object-relational mapping enforce them
//! everywhere — through application computation and through database
//! queries. Application code contains *no* policy checks.
//!
//! * [`ModelDef`] / [`label_for`] / [`simple_policy`] — schemas with
//!   attached policies and public-view computations (§2.1);
//! * [`App`] — the policy-agnostic object manager (`create`, `all`,
//!   `filter_eq`, `get`, `save`);
//! * [`Session`] — the computation sink and Early Pruning request
//!   path (§3.2): resolve each label once for the session user, via
//!   SAT only where policies form a cycle (§2.3), and prune all
//!   other facets;
//! * [`Router`] / [`Request`] / [`Response`] — a minimal MVC layer
//!   for the case studies and stress tests, with read-only routes
//!   that take shared (`&App`) access;
//! * [`Executor`] — the concurrent request executor: one shared
//!   `App` behind a reader-writer lock, read pages dispatched in
//!   parallel, writes serialized, plus a deterministic sequential
//!   mode that the differential tests pin bit-for-bit;
//! * [`VanillaDb`] — the non-faceted ORM used by the hand-coded
//!   baseline applications the paper compares against.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), form::FormError> {
//! use jacqueline::{simple_policy, App, ModelDef, Session, Viewer};
//! use microdb::{ColumnDef, ColumnType, Value};
//!
//! let mut app = App::new();
//! app.register_model(
//!     ModelDef::public("note", vec![
//!         ColumnDef::new("owner", ColumnType::Int),
//!         ColumnDef::new("text", ColumnType::Str),
//!     ])
//!     .with_policy(simple_policy(
//!         "owner_only",
//!         vec![1],
//!         |_row| vec![Value::from("[private]")],
//!         |args| args.viewer.user_jid() == args.row[0].as_int(),
//!     )),
//! )?;
//!
//! let note = app.create("note", vec![Value::Int(7), Value::from("my secret")])?;
//! let obj = app.get("note", note)?;
//! let shown = |viewer| Session::new(viewer).view_object(&app, &obj).unwrap();
//! assert_eq!(shown(Viewer::User(7))[1], Value::from("my secret"));
//! assert_eq!(shown(Viewer::User(8))[1], Value::from("[private]"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
mod auth;
pub mod checkpoint;
mod executor;
mod http;
mod model;
mod rendercache;
pub mod server;
mod session;
#[cfg(test)]
mod testkit;
mod vanilla;
pub mod wire;

pub use app::App;
pub use auth::{AuthOutcome, Authenticator, SESSION_COOKIE};
pub use checkpoint::{
    add_checkpoint_route, add_health_route, CheckpointObservability, CheckpointStats, RestoreStats,
};
pub use executor::{
    CheckpointPolicy, Executor, ExecutorService, ServedResponse, DEFAULT_QUEUE_DEPTH,
};
pub use http::{
    Controller, Footprint, ParamCanonicalizer, ReadController, Request, Response, Router,
};
pub use model::{label_for, simple_policy, FieldPolicy, ModelDef, PolicyArgs, PolicyFn, Viewer};
pub use rendercache::{RenderCacheStats, RenderCacheStatus};
pub use server::{Server, ServerConfig, Site};
pub use session::Session;
pub use vanilla::VanillaDb;
