//! The big-step faceted evaluator: `Σ, e ⇓_pc Σ′, V`.
//!
//! Every rule of Figures 4 and 5 is implemented here, plus the
//! λ<sub>jeeves</sub> label rules (`F-LABEL`, `F-RESTRICT`) and the
//! `F-PRINT` sink of Appendix A, and the Early Pruning rule `F-PRUNE`
//! of §4.4 (enabled by [`EvalConfig::early_prune`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use faceted::{Branch, Branches, Faceted, Label};
use labelsat::{max_true_assignment, Assignment, Formula};

use crate::ast::{Expr, Op, RowStrings, Statement, Table};
use crate::error::EvalError;
use crate::value::{RawValue, Val};

/// The store Σ: reference cells plus per-label policies.
///
/// Policies are stored as the list of values attached by successive
/// `restrict(k, ·)` calls; each entry is already faceted as
/// `⟨⟨pc ∪ {k} ? policy : λx.true⟩⟩` (rule `F-RESTRICT`), which is how
/// the all-false assignment stays valid.
#[derive(Clone, Debug, Default)]
pub struct Store {
    cells: Vec<Val>,
    policies: BTreeMap<Label, Vec<Val>>,
    /// The next label index.
    next_label: u32,
}

impl Store {
    /// An empty store.
    #[must_use]
    pub fn new() -> Store {
        Store::default()
    }

    /// Allocates a fresh cell, returning its address.
    pub fn alloc(&mut self, v: Val) -> usize {
        self.cells.push(v);
        self.cells.len() - 1
    }

    /// Reads a cell (`None` when the address was never allocated —
    /// the `F-DEREF-NULL` case).
    #[must_use]
    pub fn read(&self, addr: usize) -> Option<&Val> {
        self.cells.get(addr)
    }

    /// Writes a cell.
    ///
    /// # Panics
    ///
    /// Panics if the address was never allocated.
    pub fn write(&mut self, addr: usize, v: Val) {
        self.cells[addr] = v;
    }

    /// Number of allocated cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cells are allocated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// All cells, for projection.
    #[must_use]
    pub fn cells(&self) -> &[Val] {
        &self.cells
    }

    /// Mutable view of all cells, for projection helpers.
    pub fn cells_mut(&mut self) -> &mut Vec<Val> {
        &mut self.cells
    }

    /// Allocates a fresh label with the default policy (`F-LABEL`):
    /// the next index, whatever the binder's name.
    ///
    /// # Panics
    ///
    /// Panics once all 2³² label indices are spent.
    pub fn fresh_label(&mut self) -> Label {
        let k = Label::from_index(self.next_label);
        self.next_label = self
            .next_label
            .checked_add(1)
            .expect("label space exhausted");
        k
    }

    /// Attaches a (pre-faceted) policy value to a label.
    pub fn push_policy(&mut self, label: Label, policy: Val) {
        self.policies.entry(label).or_default().push(policy);
    }

    /// The policies attached to a label.
    #[must_use]
    pub fn policies_of(&self, label: Label) -> &[Val] {
        self.policies.get(&label).map_or(&[], Vec::as_slice)
    }

    /// Labels that have at least one attached policy.
    pub fn policy_labels(&self) -> impl Iterator<Item = Label> + '_ {
        self.policies.keys().copied()
    }
}

/// Evaluator configuration.
#[derive(Clone, Debug, Default)]
pub struct EvalConfig {
    /// Apply `F-PRUNE` at every table-producing step: drop rows whose
    /// guard is inconsistent with the current program counter.
    pub early_prune: bool,
    /// An additional viewer constraint for pruning (§3.2: "the session
    /// user is often the viewing context"). Rows inconsistent with
    /// `pc ∪ speculation` are dropped when pruning is on.
    pub speculation: Branches,
}

/// One line of `print` output: the resolved channel and value.
#[derive(Clone, Debug, PartialEq)]
pub struct Output {
    /// The file handle the value was printed to.
    pub channel: String,
    /// The concrete (projected) value.
    pub rendered: String,
}

/// The λ<sub>JDB</sub> interpreter: a store plus configuration.
#[derive(Clone, Debug, Default)]
pub struct Interp {
    /// The store Σ.
    pub store: Store,
    /// Evaluation options.
    pub config: EvalConfig,
    fuel: u64,
}

/// Default fuel: generous for tests, finite for generated programs.
const DEFAULT_FUEL: u64 = 1_000_000;

impl Interp {
    /// A fresh interpreter with an empty store.
    #[must_use]
    pub fn new() -> Interp {
        Interp {
            store: Store::new(),
            config: EvalConfig::default(),
            fuel: DEFAULT_FUEL,
        }
    }

    /// A fresh interpreter with Early Pruning enabled for the given
    /// viewer speculation.
    #[must_use]
    pub fn with_pruning(speculation: Branches) -> Interp {
        Interp {
            store: Store::new(),
            config: EvalConfig {
                early_prune: true,
                speculation,
            },
            fuel: DEFAULT_FUEL,
        }
    }

    /// Sets the fuel budget (number of evaluation steps).
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Evaluates a closed expression under the empty program counter.
    ///
    /// # Errors
    ///
    /// Any [`EvalError`] the program gets stuck on.
    pub fn eval(&mut self, e: &Expr) -> Result<Val, EvalError> {
        self.eval_pc(e, &Branches::new())
    }

    /// Evaluates under an explicit program counter: `Σ, e ⇓_pc Σ′, V`.
    ///
    /// # Errors
    ///
    /// Any [`EvalError`] the program gets stuck on.
    pub fn eval_pc(&mut self, e: &Expr, pc: &Branches) -> Result<Val, EvalError> {
        if self.fuel == 0 {
            return Err(EvalError::OutOfFuel);
        }
        self.fuel -= 1;
        match e {
            // ---- Values ([F-VAL]) -------------------------------------
            Expr::Unit => Ok(Val::raw(RawValue::Unit)),
            Expr::Bool(b) => Ok(Val::bool(*b)),
            Expr::Int(i) => Ok(Val::int(*i)),
            Expr::Str(s) => Ok(Val::str(s)),
            Expr::File(f) => Ok(Val::raw(RawValue::File(f.clone()))),
            Expr::Addr(a) => Ok(Val::raw(RawValue::Addr(*a))),
            Expr::LabelLit(l) => Ok(Val::raw(RawValue::Lbl(*l))),
            Expr::TableLit(t) => Ok(self.maybe_prune(Val::Table(t.clone()), pc)),
            Expr::Lam(p, b) => Ok(Val::raw(RawValue::Closure(p.clone(), Arc::clone(b)))),
            Expr::Var(x) => Err(EvalError::UnboundVariable(x.clone())),

            // ---- Application ([F-APP] + [F-STRICT]) -------------------
            Expr::App(f, a) => {
                let vf = self.eval_pc(f, pc)?;
                let va = self.eval_pc(a, pc)?;
                self.apply(&vf, &va, pc)
            }

            // ---- Let (sugar for β-redex) ------------------------------
            Expr::Let(x, bound, body) => {
                let v = self.eval_pc(bound, pc)?;
                let body = body.subst(x, &v.to_expr());
                self.eval_pc(&body, pc)
            }

            // ---- References ([F-REF], [F-DEREF], [F-DEREF-NULL],
            //      [F-ASSIGN]) -----------------------------------------
            Expr::Ref(e) => {
                let v = self.eval_pc(e, pc)?;
                let init = self.guard_with_pc(pc, v)?;
                let a = self.store.alloc(init);
                Ok(Val::raw(RawValue::Addr(a)))
            }
            Expr::Deref(e) => {
                let v = self.eval_pc(e, pc)?;
                let f = v.as_faceted()?.clone();
                self.strict(&f, pc, &mut |me, raw, _pc| match raw {
                    RawValue::Addr(a) => Ok(me
                        .store
                        .read(*a)
                        .cloned()
                        // [F-DEREF-NULL]: unallocated address reads 0.
                        .unwrap_or_else(|| Val::int(0))),
                    other => Err(EvalError::NotAnAddress(other.to_string())),
                })
            }
            Expr::Assign(lhs, rhs) => {
                let va = self.eval_pc(lhs, pc)?;
                let v = self.eval_pc(rhs, pc)?;
                let fa = va.as_faceted()?.clone();
                let v2 = v.clone();
                self.strict(&fa, pc, &mut |me, raw, pc| match raw {
                    RawValue::Addr(a) => {
                        let old = me.store.read(*a).cloned().unwrap_or_else(|| Val::int(0));
                        let merged = facet_join_branches_val(pc, v2.clone(), old)?;
                        me.store.write(*a, merged);
                        Ok(v2.clone())
                    }
                    other => Err(EvalError::NotAnAddress(other.to_string())),
                })
            }

            // ---- Faceted expressions ([F-SPLIT], [F-LEFT], [F-RIGHT]) -
            Expr::Facet(ke, high, low) => {
                let kv = self.eval_pc(ke, pc)?;
                let kf = kv.as_faceted()?.clone();
                let high = Arc::clone(high);
                let low = Arc::clone(low);
                self.strict(&kf, pc, &mut |me, raw, pc| {
                    let k = match raw {
                        RawValue::Lbl(k) => *k,
                        other => return Err(EvalError::NotALabel(other.to_string())),
                    };
                    if pc.contains(Branch::pos(k)) {
                        // [F-LEFT]
                        me.eval_pc(&high, pc)
                    } else if pc.contains(Branch::neg(k)) {
                        // [F-RIGHT]
                        me.eval_pc(&low, pc)
                    } else {
                        // [F-SPLIT]
                        let v1 = me.eval_pc(&high, &pc.with(Branch::pos(k)))?;
                        let v2 = me.eval_pc(&low, &pc.with(Branch::neg(k)))?;
                        Val::facet_join(k, v1, v2)
                    }
                })
            }

            // ---- Labels ([F-LABEL], [F-RESTRICT]) ---------------------
            Expr::LabelIn(name, body) => {
                let k = self.store.fresh_label();
                let body = body.subst(name, &Expr::LabelLit(k));
                self.eval_pc(&body, pc)
            }
            Expr::Restrict(ke, pe) => {
                let kv = self.eval_pc(ke, pc)?;
                let v = self.eval_pc(pe, pc)?;
                let kf = kv.as_faceted()?.clone();
                let policy = v.clone();
                self.strict(&kf, pc, &mut |me, raw, pc| {
                    let k = match raw {
                        RawValue::Lbl(k) => *k,
                        other => return Err(EvalError::NotALabel(other.to_string())),
                    };
                    // Vp = ⟨⟨pc ∪ {k} ? V : λx.true⟩⟩
                    let trivially_true =
                        Val::raw(RawValue::Closure("x".into(), Expr::Bool(true).rc()));
                    let guard = pc.with(Branch::pos(k));
                    let vp = facet_join_branches_val(&guard, policy.clone(), trivially_true)?;
                    me.store.push_policy(k, vp);
                    Ok(policy.clone())
                })
            }

            // ---- Conditionals (faceted control flow) ------------------
            Expr::If(c, t, e2) => {
                let vc = self.eval_pc(c, pc)?;
                let fc = vc.as_faceted()?.clone();
                let t = Arc::clone(t);
                let e2 = Arc::clone(e2);
                self.strict(&fc, pc, &mut |me, raw, pc| match raw {
                    RawValue::Bool(true) => me.eval_pc(&t, pc),
                    RawValue::Bool(false) => me.eval_pc(&e2, pc),
                    other => Err(EvalError::NotABool(other.to_string())),
                })
            }

            // ---- Primitive operators ([F-STRICT] in both operands) ----
            Expr::BinOp(op, a, b) => {
                let va = self.eval_pc(a, pc)?;
                let vb = self.eval_pc(b, pc)?;
                let fa = va.as_faceted()?;
                let fb = vb.as_faceted()?;
                let joined = fa.zip_with(fb, &mut |x, y| prim_op(*op, x, y));
                // Surface the first error, if any; otherwise strip Ok.
                for (_, leaf) in joined.leaves() {
                    if let Err(e) = leaf {
                        return Err(e.clone());
                    }
                }
                Ok(Val::F(
                    joined.map(&mut |r| r.clone().expect("errors handled above")),
                ))
            }

            // ---- Relational operators (Figure 5) ----------------------
            Expr::Row(es) => {
                // Evaluate fields left to right; distribute facets over
                // the row ([F-STRICT] on each field position).
                let mut acc: Faceted<RowStrings> = Faceted::leaf(Vec::new());
                for e in es {
                    let v = self.eval_pc(e, pc)?;
                    let f = v.as_faceted()?;
                    let checked = f.map(&mut |r| match r {
                        RawValue::Str(s) => Ok(s.clone()),
                        other => Err(EvalError::RowFieldNotString(other.to_string())),
                    });
                    for (_, leaf) in checked.leaves() {
                        if let Err(e) = leaf {
                            return Err(e.clone());
                        }
                    }
                    let strings = checked.map(&mut |r| r.clone().expect("checked"));
                    acc = acc.zip_with(&strings, &mut |row, s| {
                        let mut row = row.clone();
                        row.push(s.clone());
                        row
                    });
                }
                // ⟨k ? row "a" : row "b"⟩ ≡ table {({k},a), ({¬k},b)}.
                let mut t = Table::new();
                for (guard, fields) in acc.leaves() {
                    t.push(guard, fields.clone());
                }
                Ok(self.maybe_prune(Val::Table(t), pc))
            }
            Expr::Select(i, j, e) => {
                let v = self.eval_pc(e, pc)?;
                let t = v.as_table()?;
                let mut out = Table::new();
                for (b, row) in t.iter() {
                    let (fi, fj) = (
                        row.get(*i).ok_or(EvalError::ColumnOutOfBounds {
                            index: *i,
                            width: row.len(),
                        })?,
                        row.get(*j).ok_or(EvalError::ColumnOutOfBounds {
                            index: *j,
                            width: row.len(),
                        })?,
                    );
                    if fi == fj {
                        out.push(b.clone(), row.clone());
                    }
                }
                Ok(self.maybe_prune(Val::Table(out), pc))
            }
            Expr::Project(ix, e) => {
                let v = self.eval_pc(e, pc)?;
                let t = v.as_table()?;
                let mut out = Table::new();
                for (b, row) in t.iter() {
                    let projected: Result<RowStrings, EvalError> = ix
                        .iter()
                        .map(|&i| {
                            row.get(i).cloned().ok_or(EvalError::ColumnOutOfBounds {
                                index: i,
                                width: row.len(),
                            })
                        })
                        .collect();
                    out.push(b.clone(), projected?);
                }
                Ok(self.maybe_prune(Val::Table(out), pc))
            }
            Expr::Join(a, b) => {
                let va = self.eval_pc(a, pc)?;
                let vb = self.eval_pc(b, pc)?;
                let (ta, tb) = (va.as_table()?, vb.as_table()?);
                let mut out = Table::new();
                for (b1, r1) in ta.iter() {
                    for (b2, r2) in tb.iter() {
                        let mut row = r1.clone();
                        row.extend(r2.iter().cloned());
                        out.push(b1.union(b2), row);
                    }
                }
                Ok(self.maybe_prune(Val::Table(out), pc))
            }
            Expr::Union(a, b) => {
                let va = self.eval_pc(a, pc)?;
                let vb = self.eval_pc(b, pc)?;
                let (ta, tb) = (va.as_table()?, vb.as_table()?);
                let mut out = ta.clone();
                out.extend_from(tb.clone());
                Ok(self.maybe_prune(Val::Table(out), pc))
            }
            Expr::Fold(f, p, t) => {
                let vf = self.eval_pc(f, pc)?;
                let vp = self.eval_pc(p, pc)?;
                let vt = self.eval_pc(t, pc)?;
                let rows: Vec<(Branches, RowStrings)> = vt
                    .as_table()?
                    .iter()
                    .map(|(b, r)| (b.clone(), r.clone()))
                    .collect();
                self.fold_rows(&vf, vp, &rows, pc)
            }
        }
    }

    /// `[F-FOLD-EMPTY]`, `[F-FOLD-CONSISTENT]`, `[F-FOLD-INCONSISTENT]`:
    /// the rules recurse on the tail first, then incorporate the head
    /// row if its guard is consistent with `pc`.
    fn fold_rows(
        &mut self,
        vf: &Val,
        acc: Val,
        rows: &[(Branches, RowStrings)],
        pc: &Branches,
    ) -> Result<Val, EvalError> {
        let Some(((guard, fields), rest)) = rows.split_first() else {
            return Ok(acc); // [F-FOLD-EMPTY]
        };
        let v_prime = self.fold_rows(vf, acc, rest, pc)?;
        if !guard.consistent_with(pc) {
            return Ok(v_prime); // [F-FOLD-INCONSISTENT]
        }
        // [F-FOLD-CONSISTENT]: Σ′, V_f s V′ ⇓_{pc ∪ B} Σ″, V″.
        let inner_pc = pc.union(guard);
        let mut row_table = Table::new();
        row_table.push(Branches::new(), fields.clone());
        let partial = self.apply(vf, &Val::Table(row_table), &inner_pc)?;
        let v_dprime = self.apply(&partial, &v_prime, &inner_pc)?;
        facet_join_branches_val(guard, v_dprime, v_prime)
    }

    /// Function application with [F-STRICT] on the function position.
    fn apply(&mut self, vf: &Val, va: &Val, pc: &Branches) -> Result<Val, EvalError> {
        let f = vf.as_faceted()?.clone();
        let arg = va.to_expr();
        self.strict(&f, pc, &mut |me, raw, pc| match raw {
            RawValue::Closure(p, body) => {
                let body = body.subst(p, &arg);
                me.eval_pc(&body, pc)
            }
            other => Err(EvalError::NotAFunction(other.to_string())),
        })
    }

    /// The [F-STRICT] recursion: peel facets off a value needed in a
    /// strict position, extending `pc` down each side and re-joining
    /// the results (sharing [F-LEFT]/[F-RIGHT] when `pc` already
    /// decides the label).
    fn strict(
        &mut self,
        v: &Faceted<RawValue>,
        pc: &Branches,
        f: &mut dyn FnMut(&mut Interp, &RawValue, &Branches) -> Result<Val, EvalError>,
    ) -> Result<Val, EvalError> {
        match v.as_leaf() {
            Some(raw) => f(self, raw, pc),
            None => {
                let k = v.root_label().expect("non-leaf");
                if pc.contains(Branch::pos(k)) {
                    self.strict(&v.assume(k, true), pc, f)
                } else if pc.contains(Branch::neg(k)) {
                    self.strict(&v.assume(k, false), pc, f)
                } else {
                    let vh = self.strict(&v.assume(k, true), &pc.with(Branch::pos(k)), f)?;
                    let vl = self.strict(&v.assume(k, false), &pc.with(Branch::neg(k)), f)?;
                    Val::facet_join(k, vh, vl)
                }
            }
        }
    }

    /// `⟨⟨pc ? V : default⟩⟩` for [F-REF]/[F-ASSIGN]; the default is 0
    /// for scalars (per the paper) and the empty table for tables (so
    /// that table references allocated under a branch stay usable).
    fn guard_with_pc(&self, pc: &Branches, v: Val) -> Result<Val, EvalError> {
        if pc.is_empty() {
            return Ok(v);
        }
        let default = match &v {
            Val::F(_) => Val::int(0),
            Val::Table(_) => Val::Table(Table::new()),
        };
        facet_join_branches_val(pc, v, default)
    }

    /// Early Pruning ([F-PRUNE]): drop rows inconsistent with the
    /// viewer constraint when enabled.
    fn maybe_prune(&self, v: Val, pc: &Branches) -> Val {
        if !self.config.early_prune {
            return v;
        }
        match v {
            Val::Table(t) => {
                let constraint = pc.union(&self.config.speculation);
                Val::Table(t.prune(&constraint))
            }
            other => other,
        }
    }

    /// Runs a statement, collecting `print` outputs.
    ///
    /// # Errors
    ///
    /// Any [`EvalError`] raised by the contained expressions.
    pub fn run(&mut self, s: &Statement) -> Result<Vec<Output>, EvalError> {
        match s {
            Statement::Let(x, e, body) => {
                let v = self.eval(e)?;
                let body = subst_statement(body, x, &v.to_expr());
                self.run(&body)
            }
            Statement::Print(ev, er) => {
                let out = self.print(ev, er)?;
                Ok(vec![out])
            }
            Statement::Seq(a, b) => {
                let mut out = self.run(a)?;
                out.extend(self.run(b)?);
                Ok(out)
            }
        }
    }

    /// The `F-PRINT` sink: evaluates channel and value, collects the
    /// `closeK` transitive closure of relevant labels, conjoins their
    /// policies applied to the channel, and picks a maximal-true label
    /// assignment satisfying the result.
    ///
    /// # Errors
    ///
    /// Evaluation errors, [`EvalError::BadPolicy`] for non-Boolean
    /// policy checks, [`EvalError::NoValidAssignment`] if the policy
    /// constraints are unsatisfiable.
    pub fn print(&mut self, ev: &Expr, er: &Expr) -> Result<Output, EvalError> {
        let empty = Branches::new();
        let vf = self.eval_pc(ev, &empty)?;
        let vc = self.eval_pc(er, &empty)?;

        // closeK over the labels of the channel, the value, and
        // transitively the labels of their policies.
        let mut relevant: Vec<Label> = vf.labels();
        relevant.extend(vc.labels());
        relevant.sort_unstable();
        relevant.dedup();
        loop {
            let mut grew = false;
            let snapshot = relevant.clone();
            for k in snapshot {
                for p in self.store.policies_of(k).to_vec() {
                    for l in p.labels() {
                        if !relevant.contains(&l) {
                            relevant.push(l);
                            grew = true;
                        }
                    }
                }
            }
            if !grew {
                relevant.sort_unstable();
                relevant.dedup();
                break;
            }
        }

        // ep = λx.true ∧_f Σ(k1) ∧_f …  applied to V_f.
        let mut constraint = Formula::constant(true);
        for &k in &relevant {
            for p in self.store.policies_of(k).to_vec() {
                let check = self.apply(&p, &vf, &empty)?;
                let fb = check
                    .as_faceted()
                    .map_err(|_| EvalError::BadPolicy("policy check returned a table".into()))?;
                let booleans = fb.map(&mut |r| match r {
                    RawValue::Bool(b) => Ok(*b),
                    other => Err(EvalError::BadPolicy(format!(
                        "policy check returned non-boolean {other}"
                    ))),
                });
                for (_, leaf) in booleans.leaves() {
                    if let Err(e) = leaf {
                        return Err(e.clone());
                    }
                }
                let plain = booleans.map(&mut |r| *r.as_ref().expect("checked"));
                constraint = constraint.and(Formula::from_faceted_bool(&plain));
            }
        }

        // pick pc such that pc(V_p) = true, preferring to show.
        let mut assignment =
            max_true_assignment(&constraint).ok_or(EvalError::NoValidAssignment)?;
        for &k in &relevant {
            if !assignment.is_assigned(k) {
                assignment.set(k, true);
            }
        }

        let view = assignment.to_view();
        let channel = match &vf {
            Val::F(f) => match f.project(&view) {
                RawValue::File(name) => name.clone(),
                other => return Err(EvalError::NotAFile(other.to_string())),
            },
            Val::Table(_) => return Err(EvalError::NotAFile("table".into())),
        };
        let rendered = render(&vc, &assignment);
        Ok(Output { channel, rendered })
    }
}

/// `⟨⟨B ? V₁ : V₂⟩⟩` lifted to [`Val`] (faceted values *or* tables).
///
/// # Errors
///
/// [`EvalError::MixedFacet`] when the two sides disagree about being
/// tables.
pub fn facet_join_branches_val(b: &Branches, high: Val, low: Val) -> Result<Val, EvalError> {
    let mut acc = high;
    for branch in b.iter().collect::<Vec<_>>().into_iter().rev() {
        acc = if branch.is_positive() {
            Val::facet_join(branch.label(), acc, low.clone())?
        } else {
            Val::facet_join(branch.label(), low.clone(), acc)?
        };
    }
    Ok(acc)
}

/// Renders a value under a chosen label assignment (the concrete view
/// an observer receives).
#[must_use]
pub fn render(v: &Val, assignment: &Assignment) -> String {
    let view = assignment.to_view();
    match v {
        Val::F(f) => f.project(&view).to_string(),
        Val::Table(t) => {
            let rows = t.project(&view);
            let mut s = String::from("[");
            for (i, r) in rows.iter().enumerate() {
                if i > 0 {
                    s.push_str("; ");
                }
                s.push_str(&r.join(","));
            }
            s.push(']');
            s
        }
    }
}

/// Primitive operator semantics on raw values.
fn prim_op(op: Op, a: &RawValue, b: &RawValue) -> Result<RawValue, EvalError> {
    use RawValue::*;
    Ok(match (op, a, b) {
        (Op::Add, Int(x), Int(y)) => Int(x + y),
        (Op::Sub, Int(x), Int(y)) => Int(x - y),
        (Op::Mul, Int(x), Int(y)) => Int(x * y),
        (Op::Lt, Int(x), Int(y)) => Bool(x < y),
        (Op::And, Bool(x), Bool(y)) => Bool(*x && *y),
        (Op::Or, Bool(x), Bool(y)) => Bool(*x || *y),
        (Op::Concat, Str(x), Str(y)) => Str(format!("{x}{y}")),
        (Op::Eq, x, y) => Bool(x == y),
        (op, x, y) => {
            return Err(EvalError::TypeError(format!(
                "cannot apply {op} to {x} and {y}"
            )))
        }
    })
}

/// Substitution over statements.
#[must_use]
pub fn subst_statement(s: &Statement, x: &str, v: &Expr) -> Statement {
    match s {
        Statement::Let(y, e, body) => {
            let e = e.subst(x, v);
            if y == x {
                Statement::Let(y.clone(), e, body.clone())
            } else {
                Statement::Let(y.clone(), e, Box::new(subst_statement(body, x, v)))
            }
        }
        Statement::Print(a, b) => Statement::Print(a.subst(x, v), b.subst(x, v)),
        Statement::Seq(a, b) => Statement::Seq(
            Box::new(subst_statement(a, x, v)),
            Box::new(subst_statement(b, x, v)),
        ),
    }
}
