//! Model definitions: schemas with attached information-flow policies.
//!
//! This is the Rust analogue of a Jacqueline `models.py` (§2.1): a
//! model declares its fields, and for each protected field group a
//! `label_for` policy plus a `get_public_*` function computing the
//! public facet. Everything else in an application stays
//! policy-agnostic.

use std::fmt;
use std::sync::Arc;

use faceted::Faceted;
use form::FormDb;
use microdb::{ColumnDef, Row, Value};

/// The viewing context (the `ctxt` argument of Jacqueline policies):
/// who is looking at the page.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Viewer {
    /// Not logged in.
    Anonymous,
    /// A logged-in principal, by the `jid` of their profile object.
    User(i64),
}

impl Viewer {
    /// The profile `jid`, if logged in.
    #[must_use]
    pub fn user_jid(&self) -> Option<i64> {
        match self {
            Viewer::Anonymous => None,
            Viewer::User(j) => Some(*j),
        }
    }
}

impl fmt::Display for Viewer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Viewer::Anonymous => write!(f, "anonymous"),
            Viewer::User(j) => write!(f, "user#{j}"),
        }
    }
}

/// Arguments a policy receives: the *creation-time* row it protects,
/// the row's own object id, the viewer, and the database **at output
/// time** (§2.1.2). Policies get *shared* database access: output-time
/// queries are reads, which lets many request sessions resolve
/// policies concurrently against one database.
pub struct PolicyArgs<'a> {
    /// The protected row as it was when the value was created.
    pub row: &'a Row,
    /// The `jid` of the object the policy protects.
    pub jid: i64,
    /// The principal viewing the output.
    pub viewer: &'a Viewer,
    /// The live database — policies may run (read-only) queries.
    pub db: &'a FormDb,
}

/// A policy check: may itself compute on faceted data, in which case
/// the result is a faceted Boolean (the mutual-dependency case of
/// §2.3) and the label depends on every label that verdict mentions.
/// A request [`Session`] resolves that graph one strongly connected
/// component at a time: a label on no cycle is shown iff its verdict
/// holds once its dependencies are resolved, and a cycle (a label
/// reading itself included) is solved by `labelsat`, which takes the
/// maximal model of its members' policies in label-index order (see
/// [`Session::resolve`]). Every policy runs once per session. Checks
/// are `Send + Sync` so registered models can be shared across
/// threads.
///
/// [`Session`]: crate::Session
/// [`Session::resolve`]: crate::Session::resolve
pub type PolicyFn = Arc<dyn Fn(&mut PolicyArgs<'_>) -> Faceted<bool> + Send + Sync>;

/// Computes the public facets for a policy's protected fields, given
/// the full row (the `jacqueline_get_public_*` methods).
pub type PublicViewFn = Arc<dyn Fn(&Row) -> Vec<Value> + Send + Sync>;

/// One `label_for(fields…)` declaration: which columns the label
/// guards, how to compute their public view, and the policy deciding
/// who sees the secret view.
#[derive(Clone)]
pub struct FieldPolicy {
    /// The policy's display name (shown by `Debug`). Labels have no
    /// names: a label is its allocation index.
    pub label_name: String,
    /// Indexes of the protected columns.
    pub fields: Vec<usize>,
    /// Public-facet computation for exactly those columns.
    pub public_view: PublicViewFn,
    /// The `label_for` check.
    pub check: PolicyFn,
}

impl fmt::Debug for FieldPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FieldPolicy")
            .field("label_name", &self.label_name)
            .field("fields", &self.fields)
            .finish_non_exhaustive()
    }
}

/// A model: named columns plus field policies.
#[derive(Clone, Debug)]
pub struct ModelDef {
    /// Table name.
    pub name: String,
    /// User columns (the FORM adds `jid`/`jvars`).
    pub columns: Vec<ColumnDef>,
    /// Field policies; an empty list means a fully public model.
    pub policies: Vec<FieldPolicy>,
}

impl ModelDef {
    /// A model with no policies (fully public).
    #[must_use]
    pub fn public(name: &str, columns: Vec<ColumnDef>) -> ModelDef {
        ModelDef {
            name: name.to_owned(),
            columns,
            policies: Vec::new(),
        }
    }

    /// Adds a field policy (builder style).
    #[must_use]
    pub fn with_policy(mut self, policy: FieldPolicy) -> ModelDef {
        self.policies.push(policy);
        self
    }

    /// Index of a named column.
    ///
    /// # Panics
    ///
    /// Panics if the column does not exist — model definitions are
    /// static program structure, so this is a programming error.
    #[must_use]
    pub fn col(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|c| c.name() == name)
            .unwrap_or_else(|| panic!("model {} has no column {name}", self.name))
    }
}

/// Convenience constructor for a [`FieldPolicy`].
pub fn label_for(
    label_name: &str,
    fields: Vec<usize>,
    public_view: impl Fn(&Row) -> Vec<Value> + Send + Sync + 'static,
    check: impl Fn(&mut PolicyArgs<'_>) -> Faceted<bool> + Send + Sync + 'static,
) -> FieldPolicy {
    FieldPolicy {
        label_name: label_name.to_owned(),
        fields,
        public_view: Arc::new(public_view),
        check: Arc::new(check),
    }
}

/// Convenience: a policy returning a plain Boolean.
pub fn simple_policy(
    label_name: &str,
    fields: Vec<usize>,
    public_view: impl Fn(&Row) -> Vec<Value> + Send + Sync + 'static,
    check: impl Fn(&mut PolicyArgs<'_>) -> bool + Send + Sync + 'static,
) -> FieldPolicy {
    label_for(label_name, fields, public_view, move |args| {
        Faceted::leaf(check(args))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use microdb::ColumnType;

    #[test]
    fn model_column_lookup() {
        let m = ModelDef::public(
            "t",
            vec![
                ColumnDef::new("a", ColumnType::Int),
                ColumnDef::new("b", ColumnType::Str),
            ],
        );
        assert_eq!(m.col("b"), 1);
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn unknown_column_panics() {
        let _ = ModelDef::public("t", vec![]).col("zzz");
    }

    #[test]
    fn viewer_accessors() {
        assert_eq!(Viewer::User(3).user_jid(), Some(3));
        assert_eq!(Viewer::Anonymous.user_jid(), None);
        assert_eq!(Viewer::User(3).to_string(), "user#3");
    }

    #[test]
    fn builders_attach_policies() {
        let m = ModelDef::public("t", vec![ColumnDef::new("a", ColumnType::Str)]).with_policy(
            simple_policy("p", vec![0], |_| vec![Value::from("?")], |_| true),
        );
        assert_eq!(m.policies.len(), 1);
        assert_eq!(m.policies[0].fields, vec![0]);
        assert!(format!("{:?}", m.policies[0]).contains("p"));
    }
}
