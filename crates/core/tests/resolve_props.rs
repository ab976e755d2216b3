//! Property test: a request session resolves every policy graph to the
//! stratified maximal model.
//!
//! Each of 2–6 labels has a verdict that is a Boolean combination (¬,
//! ∧, ∨, constants) of labels' facets, so self-loops and 2- and
//! 3-cycles occur. Resolved in every label order (24 sampled orders
//! for 6 labels), the shown set must comply with every shown label's
//! verdict, have no compliant strict superset, equal the reference —
//! strongly connected components in dependency order, each solved by
//! `labelsat::brute_force_max_true` — in every order, and run each
//! policy exactly once per session.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use faceted::{Faceted, Label, View};
use jacqueline::{label_for, App, ModelDef, Session, Viewer};
use labelsat::{brute_force_max_true, Formula};
use microdb::{ColumnDef, ColumnType, Value};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

fn label(i: usize) -> Label {
    Label::from_index(u32::try_from(i).expect("few labels"))
}

/// A verdict over labels `0..n`.
fn verdict(rng: &mut TestRng, n: usize, depth: u32) -> Faceted<bool> {
    if depth == 0 || rng.ratio(1, 3) {
        if rng.ratio(1, 6) {
            return Faceted::leaf(rng.bool());
        }
        let k = label(rng.usize_in(0, n));
        return Faceted::split(k, Faceted::leaf(true), Faceted::leaf(false));
    }
    let a = verdict(rng, n, depth - 1);
    match rng.below(3) {
        0 => a.map(&mut |x| !x),
        1 => a.zip_with(&verdict(rng, n, depth - 1), &mut |x, y| *x && *y),
        _ => a.zip_with(&verdict(rng, n, depth - 1), &mut |x, y| *x || *y),
    }
}

/// Every order of `0..n`, or 24 random ones above 5 labels, each
/// decoded from its index in the factorial number system.
fn orders(rng: &mut TestRng, n: usize) -> Vec<Vec<usize>> {
    let all: usize = (1..=n).product();
    let codes: Vec<usize> = match n {
        ..=5 => (0..all).collect(),
        _ => (0..24).map(|_| rng.usize_in(0, all)).collect(),
    };
    let decode = |mut code: usize| {
        let mut pool: Vec<usize> = (0..n).collect();
        (1..=n)
            .rev()
            .map(|r| {
                let pick = pool.remove(code % r);
                code /= r;
                pick
            })
            .collect()
    };
    codes.into_iter().map(decode).collect()
}

/// Verdicts by label, and the label orders to resolve them in.
type Graph = (Vec<Faceted<bool>>, Vec<Vec<usize>>);

fn arb_graph() -> BoxedStrategy<Graph> {
    BoxedStrategy::new(|rng| {
        let n = rng.usize_in(2, 7);
        let verdicts = (0..n).map(|_| verdict(rng, n, 3)).collect();
        (verdicts, orders(rng, n))
    })
}

/// One object per label; label `i`'s policy counts its runs and
/// returns `verdicts[i]`.
fn graph_app(verdicts: &[Faceted<bool>]) -> (App, Arc<Vec<AtomicUsize>>) {
    let calls: Arc<Vec<AtomicUsize>> =
        Arc::new(verdicts.iter().map(|_| AtomicUsize::new(0)).collect());
    let (counted, verdicts) = (Arc::clone(&calls), verdicts.to_vec());
    let mut app = App::new();
    let m = ModelDef::public("node", vec![ColumnDef::new("v", ColumnType::Int)]).with_policy(
        label_for(
            "node",
            vec![0],
            |_| vec![Value::Int(0)],
            move |args| {
                let ix = usize::try_from(args.jid - 1).expect("jids count from 1");
                counted[ix].fetch_add(1, Ordering::Relaxed);
                verdicts[ix].clone()
            },
        ),
    );
    app.register_model(m).unwrap();
    for i in 0..calls.len() {
        let jid = app.create("node", vec![Value::Int(1)]).unwrap();
        assert_eq!(app.get("node", jid).unwrap().root_label(), Some(label(i)));
    }
    (app, calls)
}

/// Whether showing the labels in bit set `shown` complies: every
/// shown label's verdict holds under it.
fn complies(verdicts: &[Faceted<bool>], shown: usize) -> bool {
    let n = verdicts.len();
    let view = View::from_labels((0..n).filter(|i| shown & (1 << i) != 0).map(label));
    (0..n).all(|i| !view.sees(label(i)) || *verdicts[i].project(&view))
}

/// The reference: components of the "reads" graph in dependency
/// order, each set to its maximal model with lower ones substituted.
fn stratified(verdicts: &[Faceted<bool>]) -> Vec<bool> {
    let n = verdicts.len();
    let mut reach = vec![vec![false; n]; n];
    for (i, v) in verdicts.iter().enumerate() {
        for k in v.labels() {
            reach[i][k.index() as usize] = true;
        }
    }
    for m in 0..n {
        for i in 0..n {
            for j in 0..n {
                reach[i][j] |= reach[i][m] && reach[m][j];
            }
        }
    }
    let mut shown: Vec<Option<bool>> = vec![None; n];
    let ready = |i: usize, shown: &[Option<bool>]| {
        shown[i].is_none() && (0..n).all(|j| !reach[i][j] || shown[j].is_some() || reach[j][i])
    };
    while let Some(i) = (0..n).find(|&i| ready(i, &shown)) {
        let component: Vec<usize> = (0..n)
            .filter(|&j| j == i || reach[i][j] && reach[j][i])
            .collect();
        let constraint = Formula::all(component.iter().map(|&m| {
            let residual = shown
                .iter()
                .enumerate()
                .fold(Formula::from_faceted_bool(&verdicts[m]), |f, (j, s)| {
                    s.map_or(f.clone(), |s| f.assume(label(j), s))
                });
            Formula::var(label(m)).implies(residual)
        }));
        let model = brute_force_max_true(&constraint).expect("hiding every label complies");
        for m in component {
            shown[m] = Some(model.get(label(m)).unwrap_or(true));
        }
    }
    shown
        .into_iter()
        .map(|s| s.expect("every component solved"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sessions_resolve_policy_graphs_to_the_stratified_model(graph in arb_graph()) {
        let (verdicts, orders) = graph;
        let n = verdicts.len();
        let (app, calls) = graph_app(&verdicts);
        let reference = stratified(&verdicts);
        let mut first: Option<Vec<bool>> = None;
        for order in orders {
            for c in calls.iter() {
                c.store(0, Ordering::Relaxed);
            }
            let mut s = Session::new(Viewer::Anonymous);
            for &i in &order {
                s.resolve(&app, label(i));
            }
            let shown: Vec<bool> = (0..n).map(|i| s.resolve(&app, label(i))).collect();
            let mask = (0..n).filter(|&i| shown[i]).map(|i| 1 << i).sum::<usize>();
            prop_assert!(complies(&verdicts, mask), "{verdicts:?} {order:?}: {shown:?}");
            for larger in (0..1usize << n).filter(|m| m & mask == mask && *m != mask) {
                prop_assert!(!complies(&verdicts, larger), "{verdicts:?} {order:?}: {larger:b} ⊋ {mask:b} complies");
            }
            prop_assert_eq!(first.get_or_insert_with(|| shown.clone()), &shown, "{:?} {:?}", verdicts, order);
            prop_assert_eq!(&shown, &reference, "{:?} {:?}", verdicts, order);
            for (i, c) in calls.iter().enumerate() {
                prop_assert_eq!(c.load(Ordering::Relaxed), 1, "policy of label {} ({:?})", i, order);
            }
        }
    }
}
